package ringnode

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// idleRing forms a 3-step ring on the fake wire and runs it idle until
// the leader (participant 1) has parked and released its token twice.
func idleRing(t *testing.T, edit func(*Config)) (*testRing, []*Step) {
	t.Helper()
	r, steps := newStepRing(t, 3, edit)
	r.form(t)
	r.run(t, func() bool { return steps[0].Status().TokenParks >= 2 })
	return r, steps
}

// parkAtLeader runs r until the leader holds a parked token and returns
// that token.
func parkAtLeader(t *testing.T, r *testRing, leader *Step) *wire.Token {
	t.Helper()
	r.run(t, func() bool { return !leader.ParkDeadline().IsZero() })
	tok, err := wire.DecodeToken(leader.parked)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// sentTokens decodes the tokens participant from put on the wire.
func sentTokens(t *testing.T, r *testRing, from evs.ProcID) []*wire.Token {
	t.Helper()
	var out []*wire.Token
	for _, f := range r.w.q {
		if k, _ := wire.PeekType(f.frame); f.from == from && k == wire.FrameToken {
			tok, err := wire.DecodeToken(f.frame)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tok)
		}
	}
	return out
}

// TestParkOnlyLeaderAfterQuietRotation: on an idle ring only the leader
// parks; after a member orders a message, the leader passes on every
// token until two it sent carried aru == seq past the message, and then
// parks.
func TestParkOnlyLeaderAfterQuietRotation(t *testing.T) {
	r, steps := idleRing(t, nil)
	r.run(t, func() bool { return steps[0].Status().TokenParks >= 20 })
	for i, s := range steps[1:] {
		if st := s.Status(); st.TokenParks != 0 || !s.ParkDeadline().IsZero() {
			t.Fatalf("participant %d (not the leader) parked: %d parks", i+2, st.TokenParks)
		}
	}
	if st := steps[0].Status(); st.TokenParked <= 0 {
		t.Fatalf("leader parked %d times for %v", st.TokenParks, st.TokenParked)
	}

	tok := r.tokenHeldFor(t, 2)
	if err := steps[1].Submit([]byte("m"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	steps[1].Token(tok, r.now)
	var sent []*wire.Token // the tokens the leader passed on
	for steps[0].ParkDeadline().IsZero() {
		if len(sent) > 5 {
			t.Fatalf("leader never parked again after a message; it sent %+v", sent)
		}
		r.w.q = r.w.q[:0]
		steps[0].Token(r.tokenHeldFor(t, 1), r.now)
		sent = append(sent, sentTokens(t, r, 1)...)
	}
	n := len(sent)
	if n < 2 {
		t.Fatalf("leader parked after passing on only %d tokens since the message", n)
	}
	msg := sent[0].Seq
	for _, tk := range sent[n-2:] {
		if tk.Seq != msg || tk.Aru != msg {
			t.Fatalf("leader parked before two of its tokens carried aru == seq == %d: %+v", msg, sent)
		}
	}
}

// TestParkRefusals: the leader passes on at once a token that follows a
// queued submission or bundle, carries a retransmission request or a
// sequence number it has not seen, has aru below seq, or follows a round
// in which the leader itself sent.
func TestParkRefusals(t *testing.T) {
	edit := func(tk *wire.Token, f func(*wire.Token)) []byte {
		f(tk)
		return tk.AppendTo(nil)
	}
	for _, tc := range []struct {
		name    string
		packing bool
		// prepare readies the leader and may rewrite the quiet token.
		prepare func(r *testRing, leader *Step, tk *wire.Token) []byte
	}{
		{"queued submission", false, func(r *testRing, leader *Step, tk *wire.Token) []byte {
			_ = leader.Submit([]byte("q"), evs.Agreed, r.now)
			return tk.AppendTo(nil)
		}},
		{"queued bundle", true, func(r *testRing, leader *Step, tk *wire.Token) []byte {
			_ = leader.Submit([]byte("q"), evs.Agreed, r.now)
			return tk.AppendTo(nil)
		}},
		{"rtr", false, func(_ *testRing, _ *Step, tk *wire.Token) []byte {
			return edit(tk, func(tk *wire.Token) { tk.Rtr = []uint64{tk.Seq} })
		}},
		{"undelivered", false, func(_ *testRing, _ *Step, tk *wire.Token) []byte {
			return edit(tk, func(tk *wire.Token) { tk.Seq++; tk.Aru++ })
		}},
		{"aru below seq", false, func(_ *testRing, _ *Step, tk *wire.Token) []byte {
			return edit(tk, func(tk *wire.Token) { tk.Aru-- })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, steps := idleRing(t, func(c *Config) { c.Packing = tc.packing })
			tok := r.tokenHeldFor(t, 1)
			tk, err := wire.DecodeToken(tok)
			if err != nil {
				t.Fatal(err)
			}
			f := tc.prepare(r, steps[0], tk)
			mark := len(r.w.log)
			steps[0].Token(f, r.now)
			if !steps[0].ParkDeadline().IsZero() || count(r.w.log[mark:], 1, "token") != 1 {
				t.Fatalf("leader parked the token (sent %v)", r.w.log[mark:])
			}
		})
	}
	t.Run("sent last round", func(t *testing.T) {
		r, steps := idleRing(t, nil)
		tok := r.tokenHeldFor(t, 1)
		if err := steps[0].Submit([]byte("q"), evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
		steps[0].Token(tok, r.now)
		// Every member has the message before the token comes back, so
		// only the leader's own last round keeps it from parking.
		tok = r.tokenHeldFor(t, 1)
		steps[0].Token(tok, r.now)
		if !steps[0].ParkDeadline().IsZero() {
			t.Fatal("leader parked the token after a round in which it sent")
		}
	})
}

// TestParkSubmitReleases: a submit at a parked leader releases the token,
// and the message takes the sequence number after the token's.
func TestParkSubmitReleases(t *testing.T) {
	for _, packing := range []bool{false, true} {
		t.Run(fmt.Sprintf("packing=%v", packing), func(t *testing.T) {
			r, steps := idleRing(t, func(c *Config) { c.Packing = packing })
			parked := parkAtLeader(t, r, steps[0])
			r.w.q = r.w.q[:0]
			if err := steps[0].Submit([]byte("rides"), evs.Agreed, r.now); err != nil {
				t.Fatal(err)
			}
			if !steps[0].ParkDeadline().IsZero() {
				t.Fatal("submit left the token parked")
			}
			var seqs []uint64
			for _, f := range r.w.q {
				if d, err := wire.DecodeData(f.frame); err == nil {
					seqs = append(seqs, d.Seq)
				}
			}
			toks := sentTokens(t, r, 1)
			if fmt.Sprint(seqs) != fmt.Sprint([]uint64{parked.Seq + 1}) || len(toks) != 1 || toks[0].Seq != parked.Seq+1 {
				t.Fatalf("released round sent data %v and %d tokens; want the message at %d on the parked token", seqs, len(toks), parked.Seq+1)
			}
		})
	}
}

// TestParkFrameReleasesFirst: a data, Join or Commit frame at a parked
// leader releases the token before the frame is handled. Each frame
// leaves the operational state, in which a token released after it would
// be dropped, so the token reaching the wire first proves the order.
func TestParkFrameReleasesFirst(t *testing.T) {
	foreign := evs.ViewID{Rep: 9, Seq: 1 << 62}
	for _, tc := range []struct {
		name  string
		token bool
		frame func(ring evs.Configuration) []byte
	}{
		{"data", false, func(evs.Configuration) []byte {
			d := wire.Data{RingID: foreign, Seq: 1, Sender: 9, Service: evs.Agreed, Payload: []byte("x")}
			return d.AppendTo(nil)
		}},
		{"join", false, func(ring evs.Configuration) []byte {
			j := wire.Join{Sender: 9, Alive: []evs.ProcID{9}, RingSeq: ring.ID.Seq + 1, Attempt: 1}
			return j.AppendTo(nil)
		}},
		{"commit", true, func(ring evs.Configuration) []byte {
			c := wire.Commit{
				NewRing:  evs.Configuration{ID: evs.ViewID{Rep: 2, Seq: ring.ID.Seq + 1}, Members: ring.Members},
				Seq:      1,
				Rotation: 1,
				Info:     make([]wire.CommitInfo, len(ring.Members)),
			}
			for i, p := range ring.Members {
				c.Info[i].PID = p
			}
			return c.AppendTo(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, steps := idleRing(t, nil)
			leader := steps[0]
			parkAtLeader(t, r, leader)
			f := tc.frame(leader.Machine().Ring())
			mark := len(r.w.log)
			if tc.token {
				leader.Token(f, r.now)
			} else {
				leader.Data(f, r.now)
			}
			got := r.w.log[mark:]
			if !leader.ParkDeadline().IsZero() || len(got) == 0 || got[0] != (entry{1, "token"}) {
				t.Fatalf("after the %s frame the leader sent %v; want the parked token first", tc.name, got)
			}
			if st := leader.Machine().State(); st == membership.StateOperational {
				t.Fatalf("the %s frame left the leader %v; the order check is vacuous", tc.name, st)
			}
		})
	}
}

// TestParkTickDeadline: a park lasts as long as the quiet rotation before
// it and never longer than pack.DefaultMaxDelay; Tick releases it at the
// deadline and not before.
func TestParkTickDeadline(t *testing.T) {
	r, steps := idleRing(t, nil)
	leader := steps[0]
	parkAtLeader(t, r, leader)
	at := leader.ParkDeadline()
	mark := len(r.w.log)
	leader.Tick(at.Add(-time.Nanosecond))
	if leader.ParkDeadline().IsZero() || count(r.w.log[mark:], 1, "token") != 0 {
		t.Fatal("Tick released the park before its deadline")
	}
	r.now = at
	leader.Tick(r.now)
	if !leader.ParkDeadline().IsZero() || count(r.w.log[mark:], 1, "token") != 1 {
		t.Fatal("Tick at the deadline did not release the park")
	}
	released := r.now

	// The next quiet rotation sets the bound.
	tok := r.tokenHeldFor(t, 1)
	leader.Token(tok, r.now)
	if got, want := leader.ParkDeadline().Sub(r.now), r.now.Sub(released); got != want || want <= 0 {
		t.Fatalf("parked for %v after a %v rotation", got, want)
	}
	r.now = leader.ParkDeadline()
	leader.Tick(r.now)

	// A slow rotation is capped.
	tok = r.tokenHeldFor(t, 1)
	r.now = r.now.Add(5 * pack.DefaultMaxDelay)
	leader.Token(tok, r.now)
	if got := leader.ParkDeadline().Sub(r.now); got != pack.DefaultMaxDelay {
		t.Fatalf("parked for %v after a slow rotation, want the %v cap", got, pack.DefaultMaxDelay)
	}
}

// TestParkObserved: released parks count on ring.token_parks and their
// time on ring.token_parked_ns, under the observer's label.
func TestParkObserved(t *testing.T) {
	reg := obs.NewRegistry()
	_, steps := idleRing(t, func(c *Config) {
		if c.Self == 1 {
			c.Observer = &obs.RingObserver{Reg: reg, Label: "shard1"}
		}
	})
	st := steps[0].Status()
	if got := reg.Counter("shard1.ring.token_parks").Value(); got != st.TokenParks {
		t.Fatalf("ring.token_parks = %d, status counts %d", got, st.TokenParks)
	}
	if got := reg.Counter("shard1.ring.token_parked_ns").Value(); got != uint64(st.TokenParked) || got == 0 {
		t.Fatalf("ring.token_parked_ns = %d, status holds %v", got, st.TokenParked)
	}
}

// TestIdleUDPRingParksUnnoticed runs a 3-node ring over real UDP at the
// default timeouts, idle and then under a trickle, and checks that its
// parks look to membership and to the health detector like a slow hop:
// one install, no token retransmission, no stall or aru stagnation.
func TestIdleUDPRingParksUnnoticed(t *testing.T) {
	if testing.Short() {
		t.Skip("4 s of wall-clock ring")
	}
	const n = 3
	uds := make([]*transport.UDP, n)
	for i := range uds {
		u, err := transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
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
	regs := make([]*obs.Registry, n)
	for i := range nodes {
		regs[i] = obs.NewRegistry()
		cfg := Accelerated(evs.ProcID(i+1), uds[i], 20, 160, 15)
		cfg.Observer = &obs.RingObserver{Reg: regs[i]}
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
	}
	waitFullRing(t, nodes, n, 10*time.Second)
	formed := make([]membership.Counters, n)
	for i, node := range nodes {
		formed[i] = node.Status().Membership
	}
	healths := make([]*obs.Health, n)
	for i, reg := range regs {
		healths[i] = obs.NewHealth(reg, obs.HealthConfig{})
		healths[i].Check()
	}
	check := func(phase string) {
		t.Helper()
		for i, h := range healths {
			for _, st := range h.Check() {
				if st.TokenStall || st.AruStagnation {
					t.Errorf("%s: node %d health %+v", phase, i+1, st)
				}
			}
		}
	}
	for k := 0; k < 4; k++ {
		time.Sleep(500 * time.Millisecond)
		check("idle")
	}
	for k := 0; k < 200; k++ {
		if err := nodes[k%n].Submit([]byte(fmt.Sprintf("trickle-%d", k)), evs.Agreed); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if k%50 == 49 {
			check("trickle")
		}
	}
	parks := uint64(0)
	for i, node := range nodes {
		st := node.Status()
		if st.Membership != formed[i] {
			t.Errorf("node %d: membership counters moved from %+v to %+v", i+1, formed[i], st.Membership)
		}
		parks += st.TokenParks
	}
	if parks == 0 {
		t.Fatal("no token was parked; the check is vacuous")
	}
	t.Logf("parks: %d; leader rounds: %d", parks, nodes[0].Status().Engine.Rounds)
}
