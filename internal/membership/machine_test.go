package membership

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/wire"
)

// memHarness wires machines together over a synchronous in-memory network
// with a manual clock, making every membership scenario deterministic.
type memHarness struct {
	t        *testing.T
	now      time.Time
	machines map[evs.ProcID]*Machine
	outs     map[evs.ProcID]*memOut
	queue    []envelope
	// drop, when set, discards matching frames.
	drop func(from, to evs.ProcID, token bool, frame []byte) bool
	// dead machines receive nothing and send nothing.
	dead map[evs.ProcID]bool
}

type envelope struct {
	from, to evs.ProcID
	token    bool
	frame    []byte
}

type memOut struct {
	h      *memHarness
	id     evs.ProcID
	events []evs.Event
}

func (o *memOut) Multicast(frame []byte) {
	if o.h.dead[o.id] {
		return
	}
	cp := append([]byte(nil), frame...)
	for id := range o.h.machines {
		if id != o.id {
			o.h.queue = append(o.h.queue, envelope{from: o.id, to: id, frame: cp})
		}
	}
}

func (o *memOut) Unicast(to evs.ProcID, frame []byte) {
	if o.h.dead[o.id] {
		return
	}
	cp := append([]byte(nil), frame...)
	o.h.queue = append(o.h.queue, envelope{from: o.id, to: to, token: true, frame: cp})
}

func (o *memOut) Deliver(m evs.Message)         { o.events = append(o.events, m) }
func (o *memOut) Configure(cc evs.ConfigChange) { o.events = append(o.events, cc) }

func (o *memOut) messages() []evs.Message {
	var ms []evs.Message
	for _, ev := range o.events {
		if m, ok := ev.(evs.Message); ok {
			ms = append(ms, m)
		}
	}
	return ms
}

func (o *memOut) configs() []evs.ConfigChange {
	var cs []evs.ConfigChange
	for _, ev := range o.events {
		if c, ok := ev.(evs.ConfigChange); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

func testTimeouts() Timeouts {
	return Timeouts{
		JoinInterval:    10 * time.Millisecond,
		Gather:          50 * time.Millisecond,
		Commit:          100 * time.Millisecond,
		TokenLoss:       200 * time.Millisecond,
		TokenRetransmit: 60 * time.Millisecond,
	}
}

func newMemHarness(t *testing.T, ids ...evs.ProcID) *memHarness {
	t.Helper()
	h := &memHarness{
		t:        t,
		now:      time.Unix(1000, 0),
		machines: make(map[evs.ProcID]*Machine),
		outs:     make(map[evs.ProcID]*memOut),
		dead:     make(map[evs.ProcID]bool),
	}
	for _, id := range ids {
		h.add(id)
	}
	return h
}

func (h *memHarness) add(id evs.ProcID) {
	out := &memOut{h: h, id: id}
	m, err := New(Config{
		Self:            id,
		Windows:         flowcontrol.Windows{Personal: 5, Global: 100, Accelerated: 3},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
		Timeouts:        testTimeouts(),
	}, out, h.now)
	if err != nil {
		h.t.Fatalf("machine %d: %v", id, err)
	}
	h.machines[id] = m
	h.outs[id] = out
}

// pump dispatches queued frames. An operational ring never quiesces (the
// token circulates forever), so each call processes a bounded batch.
func (h *memHarness) pump() {
	for processed := 0; len(h.queue) > 0 && processed < 5000; processed++ {
		env := h.queue[0]
		h.queue = h.queue[1:]
		m := h.machines[env.to]
		if m == nil || h.dead[env.to] {
			continue
		}
		if h.drop != nil && h.drop(env.from, env.to, env.token, env.frame) {
			continue
		}
		if env.token {
			m.HandleTokenFrame(env.frame, h.now)
		} else {
			m.HandleDataFrame(env.frame, h.now)
		}
	}
}

// advance moves the clock forward in small steps, ticking and pumping.
func (h *memHarness) advance(d time.Duration) {
	step := 5 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		h.now = h.now.Add(step)
		for id, m := range h.machines {
			if !h.dead[id] {
				m.Tick(h.now)
			}
		}
		h.pump()
	}
}

// waitOperational advances time until every live machine is operational.
func (h *memHarness) waitOperational(within time.Duration) {
	h.t.Helper()
	deadline := h.now.Add(within)
	for h.now.Before(deadline) {
		all := true
		for id, m := range h.machines {
			if h.dead[id] {
				continue
			}
			if m.State() != StateOperational {
				all = false
			}
		}
		if all {
			return
		}
		h.advance(10 * time.Millisecond)
	}
	for id, m := range h.machines {
		if !h.dead[id] {
			h.t.Logf("machine %d state %v ring %v", id, m.State(), m.Ring())
		}
	}
	h.t.Fatal("machines did not become operational")
}

func (h *memHarness) ringOf(id evs.ProcID) evs.Configuration { return h.machines[id].Ring() }

// waitReform advances time until every live machine is operational on a
// ring NEWER than old.
func (h *memHarness) waitReform(old evs.ViewID, within time.Duration) {
	h.t.Helper()
	deadline := h.now.Add(within)
	for h.now.Before(deadline) {
		all := true
		for id, m := range h.machines {
			if h.dead[id] {
				continue
			}
			if m.State() != StateOperational || !old.Less(m.Ring().ID) {
				all = false
			}
		}
		if all {
			return
		}
		h.advance(10 * time.Millisecond)
	}
	for id, m := range h.machines {
		if !h.dead[id] {
			h.t.Logf("machine %d state %v ring %v", id, m.State(), m.Ring())
		}
	}
	h.t.Fatal("ring did not reform")
}

func TestFormInitialRing(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	ring := h.ringOf(1)
	if len(ring.Members) != 3 {
		t.Fatalf("ring = %v", ring)
	}
	for _, id := range []evs.ProcID{2, 3} {
		if !h.ringOf(id).Equal(ring) {
			t.Fatalf("machine %d ring %v != %v", id, h.ringOf(id), ring)
		}
	}
	// Fresh start: exactly one regular config change, no transitional.
	for id, out := range h.outs {
		cs := out.configs()
		if len(cs) != 1 || cs[0].Transitional {
			t.Fatalf("machine %d configs = %+v", id, cs)
		}
		if !cs[0].Config.Equal(ring) {
			t.Fatalf("machine %d config %v != ring %v", id, cs[0].Config, ring)
		}
	}
}

func TestOrderingAfterFormation(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	for id, m := range h.machines {
		for i := 0; i < 4; i++ {
			if err := m.Submit([]byte(fmt.Sprintf("m-%d-%d", id, i)), evs.Agreed); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.advance(300 * time.Millisecond)
	ref := h.outs[1].messages()
	if len(ref) != 12 {
		t.Fatalf("delivered %d messages, want 12", len(ref))
	}
	for _, id := range []evs.ProcID{2, 3} {
		ms := h.outs[id].messages()
		if len(ms) != len(ref) {
			t.Fatalf("machine %d delivered %d, want %d", id, len(ms), len(ref))
		}
		for i := range ms {
			if ms[i].Seq != ref[i].Seq || string(ms[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("total order violated at %d", i)
			}
		}
	}
}

func TestSingletonRing(t *testing.T) {
	h := newMemHarness(t, 7)
	h.waitOperational(2 * time.Second)
	ring := h.ringOf(7)
	if len(ring.Members) != 1 || ring.Members[0] != 7 {
		t.Fatalf("ring = %v", ring)
	}
	if err := h.machines[7].Submit([]byte("solo"), evs.Safe); err != nil {
		t.Fatal(err)
	}
	h.advance(200 * time.Millisecond)
	ms := h.outs[7].messages()
	if len(ms) != 1 || string(ms[0].Payload) != "solo" {
		t.Fatalf("messages = %v", ms)
	}
}

func TestSubmitBeforeRing(t *testing.T) {
	h := newMemHarness(t, 1)
	if err := h.machines[1].Submit([]byte("x"), evs.Agreed); err != ErrNotOperational {
		t.Fatalf("Submit before ring = %v, want ErrNotOperational", err)
	}
}

func TestCrashReformsRing(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	firstRing := h.ringOf(1)
	// Kill 3; the token stops circulating, 1 and 2 reform.
	h.dead[3] = true
	h.waitReform(firstRing.ID, 5*time.Second)
	ring := h.ringOf(1)
	if len(ring.Members) != 2 || !h.ringOf(2).Equal(ring) {
		t.Fatalf("reformed ring = %v / %v", ring, h.ringOf(2))
	}
	if !firstRing.ID.Less(ring.ID) {
		t.Fatalf("new ring id %v not above old %v", ring.ID, firstRing.ID)
	}
	// Survivors saw: regular(3) ... transitional(2 members) regular(2).
	for _, id := range []evs.ProcID{1, 2} {
		cs := h.outs[id].configs()
		if len(cs) != 3 {
			t.Fatalf("machine %d configs = %+v", id, cs)
		}
		if cs[0].Transitional || !cs[1].Transitional || cs[2].Transitional {
			t.Fatalf("machine %d config pattern wrong: %+v", id, cs)
		}
		if len(cs[1].Config.Members) != 2 || len(cs[2].Config.Members) != 2 {
			t.Fatalf("machine %d post-crash memberships: %+v", id, cs)
		}
	}
	// The reformed ring still orders messages.
	h.machines[1].Submit([]byte("after"), evs.Agreed)
	h.advance(200 * time.Millisecond)
	for _, id := range []evs.ProcID{1, 2} {
		ms := h.outs[id].messages()
		if len(ms) == 0 || string(ms[len(ms)-1].Payload) != "after" {
			t.Fatalf("machine %d did not deliver post-reform message", id)
		}
	}
}

// TestRecoveryDeliversMissedMessage: a message one member lost on the old
// ring must reach it through recovery flooding when membership changes
// before normal retransmission recovers it.
func TestRecoveryDeliversMissedMessage(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	// Drop all data frames to 3 (so it misses the message and the
	// retransmissions), then trigger a membership change via a joiner.
	h.drop = func(from, to evs.ProcID, token bool, frame []byte) bool {
		if to != 3 || token {
			return false
		}
		ft, _ := wire.PeekType(frame)
		return ft == wire.FrameData
	}
	h.machines[1].Submit([]byte("missed"), evs.Agreed)
	h.advance(50 * time.Millisecond)
	if n := len(h.outs[3].messages()); n != 0 {
		t.Fatalf("member 3 delivered %d messages despite drops", n)
	}
	if len(h.outs[1].messages()) != 1 {
		t.Fatal("member 1 did not deliver its own message")
	}
	// Heal the network and add a joiner: membership reruns and recovery
	// floods the missed message to 3.
	h.drop = nil
	h.add(4)
	h.waitOperational(5 * time.Second)
	if got := len(h.ringOf(1).Members); got != 4 {
		t.Fatalf("merged ring has %d members", got)
	}
	ms := h.outs[3].messages()
	if len(ms) != 1 || string(ms[0].Payload) != "missed" {
		t.Fatalf("member 3 recovered %v", ms)
	}
	// Members 1 and 2 must NOT deliver it twice.
	for _, id := range []evs.ProcID{1, 2} {
		if n := len(h.outs[id].messages()); n != 1 {
			t.Fatalf("member %d delivered %d copies", id, n)
		}
	}
	// The new member saw only the regular config (it has no old ring).
	cs := h.outs[4].configs()
	if len(cs) != 1 || cs[0].Transitional {
		t.Fatalf("joiner configs = %+v", cs)
	}
}

// TestMergeTwoRings: a partition splits the machines into two sides, each
// side forms its own ring and delivers its own message, and when the
// partition heals the sides merge into one regular configuration, each
// member seeing its side's transitional configuration just before it.
func TestMergeTwoRings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sides [2][]evs.ProcID
	}{
		{"singletons", [2][]evs.ProcID{{1}, {2}}},
		{"three and two", [2][]evs.ProcID{{1, 2, 3}, {4, 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sideOf := make(map[evs.ProcID]int)
			var ids []evs.ProcID
			for s, members := range tc.sides {
				for _, id := range members {
					sideOf[id] = s
					ids = append(ids, id)
				}
			}
			h := newMemHarness(t, ids...)
			// Partition: the sides cannot hear each other; each forms its
			// own ring.
			h.drop = func(from, to evs.ProcID, token bool, frame []byte) bool {
				return sideOf[from] != sideOf[to]
			}
			h.waitOperational(3 * time.Second)
			var newest evs.ViewID
			for s, members := range tc.sides {
				ring := h.ringOf(members[0])
				for _, id := range members {
					if r := h.ringOf(id); len(r.Members) != len(members) || !r.Equal(ring) {
						t.Fatalf("side %d: machine %d on %v, want the side's own ring", s, id, r)
					}
				}
				if newest.Less(ring.ID) {
					newest = ring.ID
				}
				h.machines[members[0]].Submit([]byte(fmt.Sprintf("side-%d", s)), evs.Agreed)
			}
			h.advance(100 * time.Millisecond)
			// Heal: presence beacons cross, both sides re-gather and merge.
			h.drop = nil
			h.waitReform(newest, 5*time.Second)
			ring := h.ringOf(ids[0])
			if len(ring.Members) != len(ids) {
				t.Fatalf("merged ring = %v", ring)
			}
			// Every member delivered its side's message exactly once and saw
			// a transitional config of its side before the merged regular
			// config.
			for _, id := range ids {
				if r := h.ringOf(id); !r.Equal(ring) {
					t.Fatalf("machine %d on %v, want %v", id, r, ring)
				}
				ms := h.outs[id].messages()
				if want := fmt.Sprintf("side-%d", sideOf[id]); len(ms) != 1 || string(ms[0].Payload) != want {
					t.Fatalf("machine %d messages = %v, want only %q", id, ms, want)
				}
				cs := h.outs[id].configs()
				last := cs[len(cs)-1]
				if last.Transitional || len(last.Config.Members) != len(ids) {
					t.Fatalf("machine %d final config = %+v", id, last)
				}
				prev := cs[len(cs)-2]
				if !prev.Transitional || !slices.Equal(prev.Config.Members, tc.sides[sideOf[id]]) {
					t.Fatalf("machine %d transitional config = %+v", id, prev)
				}
			}
		})
	}
}

func TestTokenRetransmissionHealsDrop(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	installsBefore := h.machines[1].Counters().Installs
	// Drop exactly one regular token frame.
	dropped := false
	h.drop = func(from, to evs.ProcID, token bool, frame []byte) bool {
		if !token || dropped {
			return false
		}
		ft, _ := wire.PeekType(frame)
		if ft != wire.FrameToken {
			return false
		}
		dropped = true
		return true
	}
	// One retransmit interval later the token reappears; the ring must
	// survive without reforming.
	h.advance(150 * time.Millisecond)
	h.drop = nil
	h.machines[2].Submit([]byte("alive"), evs.Agreed)
	h.advance(200 * time.Millisecond)
	if !dropped {
		t.Fatal("no token was dropped; test is vacuous")
	}
	var retrans uint64
	for _, m := range h.machines {
		retrans += m.Counters().TokenRetransmits
		if m.Counters().Installs != installsBefore {
			t.Fatalf("ring reformed after a single token drop (installs %d -> %d)",
				installsBefore, m.Counters().Installs)
		}
	}
	if retrans == 0 {
		t.Fatal("token drop healed without retransmission?")
	}
	for _, id := range []evs.ProcID{1, 2, 3} {
		ms := h.outs[id].messages()
		if len(ms) == 0 || string(ms[len(ms)-1].Payload) != "alive" {
			t.Fatalf("machine %d did not deliver after token retransmission", id)
		}
	}
}

func TestSafeMessagesAcrossMembershipChange(t *testing.T) {
	h := newMemHarness(t, 1, 2, 3)
	h.waitOperational(2 * time.Second)
	// Submit safe messages, then immediately kill member 3 before they
	// can stabilize everywhere.
	h.machines[1].Submit([]byte("s1"), evs.Safe)
	h.machines[2].Submit([]byte("s2"), evs.Safe)
	first := h.ringOf(1).ID
	h.dead[3] = true
	h.waitReform(first, 5*time.Second)
	h.advance(200 * time.Millisecond)
	// Survivors must agree on the delivered sequence (possibly within the
	// transitional configuration).
	m1, m2 := h.outs[1].messages(), h.outs[2].messages()
	if len(m1) != len(m2) {
		t.Fatalf("survivors delivered %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if string(m1[i].Payload) != string(m2[i].Payload) {
			t.Fatalf("survivor order differs at %d: %q vs %q", i, m1[i].Payload, m2[i].Payload)
		}
	}
	if len(m1) != 2 {
		t.Fatalf("expected both safe messages delivered by survivors, got %d", len(m1))
	}
}

func TestMachineValidation(t *testing.T) {
	now := time.Unix(0, 0)
	out := &memOut{}
	if _, err := New(Config{}, out, now); err == nil {
		t.Fatal("zero Self accepted")
	}
	if _, err := New(Config{Self: 1}, out, now); err == nil {
		t.Fatal("invalid windows accepted")
	}
	cfg := Config{Self: 1, Windows: flowcontrol.Windows{Personal: 5, Global: 50}}
	if _, err := New(cfg, nil, now); err == nil {
		t.Fatal("nil output accepted")
	}
	cfg.Timeouts = Timeouts{JoinInterval: -1}
	if _, err := New(cfg, out, now); err == nil {
		t.Fatal("negative timeout accepted")
	}
}
