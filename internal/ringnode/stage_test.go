package ringnode

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/transport"
)

// holdingPort is a port that holds multicasts back, as a
// transport.Stager's run does, until its Flush or its next Unicast.
type holdingPort struct {
	port
	held    [][]byte
	flushed int // multicasts a Flush sent
	byToken int // multicasts a Unicast sent ahead of its token
}

func (p *holdingPort) Multicast(frame []byte) error {
	p.held = append(p.held, append([]byte(nil), frame...))
	return nil
}

func (p *holdingPort) Unicast(to evs.ProcID, frame []byte) error {
	p.byToken += len(p.held)
	p.release()
	return p.port.Unicast(to, frame)
}

func (p *holdingPort) Flush() {
	p.flushed += len(p.held)
	p.release()
}

func (p *holdingPort) release() {
	for _, f := range p.held {
		p.send(0, f)
	}
	p.held = p.held[:0]
}

// TestStepNothingStagedAfterInput: over a Sender that holds multicasts
// back (a Flusher), nothing is held once an input returns, nor when a
// delivery callback runs; the data held before a token leaves ahead of
// it.
func TestStepNothingStagedAfterInput(t *testing.T) {
	const n = 3
	r := &testRing{now: time.Unix(1000, 0)}
	ports := make([]*holdingPort, n)
	delivered := 0
	for i := range ports {
		ports[i] = &holdingPort{port: port{w: &r.w, id: evs.ProcID(i + 1)}}
		p := ports[i]
		cfg := Accelerated(evs.ProcID(i+1), nil, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		cfg.OnMessage = func(evs.Message) {
			if len(p.held) != 0 {
				t.Fatalf("participant %d delivered holding %d multicasts", p.id, len(p.held))
			}
			delivered++
		}
		s, err := NewStep(cfg, p, r.now)
		if err != nil {
			t.Fatal(err)
		}
		r.ps = append(r.ps, s)
	}
	checkInput := func(what string) {
		t.Helper()
		for _, p := range ports {
			if len(p.held) != 0 {
				t.Fatalf("participant %d holds %d multicasts after %s", p.id, len(p.held), what)
			}
		}
	}
	for i := 0; i < 6000; i++ {
		r.now = r.now.Add(10 * time.Microsecond)
		s := r.ps[i%n]
		switch {
		case i%100 == 0:
			s.Tick(r.now)
			checkInput("a tick")
		case i%3 == 0 && s.Machine().CanSubmit():
			if err := s.Submit([]byte(fmt.Sprintf("m%d", i)), evs.Agreed, r.now); err != nil {
				t.Fatal(err)
			}
			checkInput("a submit")
		case len(r.w.q) > 0:
			r.deliver()
			checkInput("a frame")
		}
	}
	byToken, flushed := 0, 0
	for _, p := range ports {
		byToken += p.byToken
		flushed += p.flushed
	}
	if delivered == 0 || byToken == 0 || flushed == 0 {
		t.Fatalf("%d deliveries, %d multicasts sent ahead of a token, %d by a flush; the check is vacuous",
			delivered, byToken, flushed)
	}
}

// TestUDPRingFloodLosesNothing saturates a 3-node ring over loopback UDP,
// its data leaving as segmented runs and read back coalesced, closed loop
// at 32 messages in flight per node for 3 s. A coalesced datagram lost
// would lose its whole run, so the ring must show no loss at all: no
// retransmission, no dropped data, no token retransmission, no reform.
func TestUDPRingFloodLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("3 s of saturated ring on loopback UDP")
	}
	const n, inFlight = 3, 32
	uds := make([]*transport.UDP, n)
	regs := make([]*obs.Registry, n)
	for i := range uds {
		regs[i] = obs.NewRegistry()
		u, err := transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
			Obs:    regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		uds[i] = u
	}
	for i := range uds {
		for j := range uds {
			if err := uds[i].AddPeer(evs.ProcID(j+1), uds[j].LocalAddrs()); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes := make([]*Node, n)
	own := make([]atomic.Int64, n)   // each node's own messages delivered back to it
	total := make([]atomic.Int64, n) // all messages each node delivered
	for i := range nodes {
		self := evs.ProcID(i + 1)
		cfg := Accelerated(self, uds[i], 20, 160, 15)
		cfg.OnMessage = func(m evs.Message) {
			total[i].Add(1)
			if m.Sender == self {
				own[i].Add(1)
			}
		}
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
	}
	waitFullRing(t, nodes, n, 10*time.Second)
	formed := make([]evs.Configuration, n)
	for i, node := range nodes {
		formed[i] = node.Status().Ring
	}

	payload := make([]byte, 1350) // shared and never written: the ring keeps payloads
	var sent atomic.Int64
	var wg sync.WaitGroup
	end := time.Now().Add(3 * time.Second)
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for submitted := int64(0); time.Now().Before(end); {
				if submitted-own[i].Load() >= inFlight {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err := node.Submit(payload, evs.Agreed); err != nil {
					t.Error(err)
					return
				}
				submitted++
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for total[i].Load() < sent.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("node %d delivered %d of %d messages", i+1, total[i].Load(), sent.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, node := range nodes {
		st := node.Status()
		if st.Ring.ID != formed[i].ID {
			t.Errorf("node %d: the ring reformed", i+1)
		}
		if e := st.Engine; e.Retransmitted != 0 || e.DataDropped != 0 || e.Requested != 0 {
			t.Errorf("node %d: %d retransmitted, %d requested, %d data dropped; want none", i+1, e.Retransmitted, e.Requested, e.DataDropped)
		}
		if tr := st.Membership.TokenRetransmits; tr != 0 {
			t.Errorf("node %d: %d token retransmissions", i+1, tr)
		}
		frames := regs[i].Counter("transport.udp.tx_data_frames").Value()
		sys := regs[i].Counter("transport.udp.tx_syscalls").Value()
		t.Logf("node %d: %d data frames sent in %d send calls (tokens included)", i+1, frames, sys)
		if runtime.GOOS == "linux" && 2*sys > frames {
			t.Errorf("node %d: %d send calls for %d data frames; the runs were not segmented", i+1, sys, frames)
		}
	}
	t.Logf("%d messages ordered in 3 s", sent.Load())
}
