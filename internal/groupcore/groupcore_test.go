package groupcore

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/group"
)

// recSink records the core's ordered output as strings.
type recSink struct {
	events []string
}

func (s *recSink) Message(ring int, env *group.Envelope, svc evs.Service, seq uint64, to []group.ClientID) {
	s.events = append(s.events, fmt.Sprintf("msg r%d %s %q to=%v", ring, env.Kind, env.Payload, to))
}
func (s *recSink) View(g string, members []group.ClientID, cause group.ClientID) {
	s.events = append(s.events, fmt.Sprintf("view %s %v by %v", g, members, cause))
}
func (s *recSink) Config(ring int, cc evs.ConfigChange) {
	s.events = append(s.events, fmt.Sprintf("config r%d %v trans=%v", ring, cc.Config.Members, cc.Transitional))
}
func (s *recSink) Rejected(c group.ClientID, op group.OpKind, err error) {
	s.events = append(s.events, fmt.Sprintf("rejected %v %s: %v", c, op, err))
}
func (s *recSink) Migrated(g string, from, to int) {
	s.events = append(s.events, fmt.Sprintf("migrated %s %d->%d", g, from, to))
}

// recSubmit records submissions (decoded) and can refuse them.
type recSubmit struct {
	mu     sync.Mutex
	refuse bool
	got    []string
	raw    []submitted
}

type submitted struct {
	ring int
	enc  []byte
	svc  evs.Service
}

var errRefused = errors.New("test: ring refused the submission")

func (s *recSubmit) Submit(ring int, payload []byte, svc evs.Service) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuse {
		return errRefused
	}
	env, err := group.DecodeEnvelope(payload)
	if err != nil {
		return err
	}
	s.got = append(s.got, fmt.Sprintf("r%d %s %v", ring, env.Kind, env.Groups))
	s.raw = append(s.raw, submitted{ring, payload, svc})
	return nil
}

func (s *recSubmit) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func newTestCore(shards int) (*Core, *recSink, *recSubmit) {
	sink, sub := &recSink{}, &recSubmit{}
	return New(Config{Shards: shards, Self: 1, Submit: sub, Sink: sink}), sink, sub
}

func cid(d evs.ProcID, l uint32) group.ClientID { return group.ClientID{Daemon: d, Local: l} }

// ordered wraps an envelope as the ring event that delivers it.
func ordered(t *testing.T, env group.Envelope, seq uint64) evs.Message {
	t.Helper()
	enc, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return evs.Message{Payload: enc, Service: evs.Agreed, Seq: seq}
}

func regular(members ...evs.ProcID) evs.ConfigChange {
	return evs.ConfigChange{Config: evs.Configuration{Members: members}}
}

// feed hands one ring event to the core's entry point for its kind.
func feed(core *Core, ring int, ev evs.Event) {
	switch e := ev.(type) {
	case evs.Message:
		core.OnRingMessage(ring, e)
	case evs.ConfigChange:
		core.OnRingConfig(ring, e)
	}
}

// TestApply drives one ring's ordered stream through the core and checks
// the sink sees each operation applied, in order, with tables resolved.
func TestApply(t *testing.T) {
	a, b, c := cid(1, 1), cid(2, 1), cid(2, 2)
	join := func(who group.ClientID, g string) group.Envelope {
		return group.Envelope{Kind: group.OpJoin, Sender: who, Groups: []string{g}}
	}
	leave := func(who group.ClientID, g string) group.Envelope {
		return group.Envelope{Kind: group.OpLeave, Sender: who, Groups: []string{g}}
	}
	tests := []struct {
		name   string
		stream []any // group.Envelope or evs.ConfigChange, in ring order
		want   []string
	}{
		{"join announces the view with its cause", []any{join(a, "g"), join(b, "g")}, []string{
			"view g [1#1] by 1#1",
			"view g [1#1 2#1] by 2#1",
		}},
		{"leave announces the self-less view", []any{join(a, "g"), join(b, "g"), leave(a, "g")}, []string{
			"view g [1#1] by 1#1",
			"view g [1#1 2#1] by 2#1",
			"view g [2#1] by 1#1",
		}},
		{"leave of a non-member is rejected in order", []any{join(a, "g"), leave(b, "g"), join(b, "g")}, []string{
			"view g [1#1] by 1#1",
			"rejected 2#1 leave: group: client is not a member",
			"view g [1#1 2#1] by 2#1",
		}},
		{"disconnect leaves every group", []any{
			join(a, "g"), join(b, "g"), join(b, "h"),
			group.Envelope{Kind: group.OpDisconnect, Sender: b},
		}, []string{
			"view g [1#1] by 1#1",
			"view g [1#1 2#1] by 2#1",
			"view h [2#1] by 2#1",
			"view g [1#1] by 2#1",
			"view h [] by 2#1",
		}},
		{"message resolves the union of its groups", []any{
			join(a, "g"), join(b, "h"), join(c, "h"),
			group.Envelope{Kind: group.OpMessage, Sender: c, Groups: []string{"g", "h"}, Payload: []byte("m")},
			group.Envelope{Kind: group.OpMessage, Sender: c, Groups: []string{"nobody"}, Payload: []byte("n")},
		}, []string{
			"view g [1#1] by 1#1",
			"view h [2#1] by 2#1",
			"view h [2#1 2#2] by 2#2",
			`msg r0 message "m" to=[1#1 2#1 2#2]`,
			`msg r0 message "n" to=[]`,
		}},
		{"private goes to its target only", []any{
			group.Envelope{Kind: group.OpPrivate, Sender: a, Target: b, Payload: []byte("p")},
		}, []string{`msg r0 private "p" to=[2#1]`}},
		{"private reject reaches the original sender", []any{
			group.Envelope{Kind: group.OpPrivateReject, Sender: b, Target: a},
		}, []string{"rejected 1#1 private_reject: private target disconnected"}},
		{"config change drops departed daemons' clients", []any{
			regular(1, 2), join(a, "g"), join(b, "g"),
			evs.ConfigChange{Config: evs.Configuration{Members: []evs.ProcID{1}}, Transitional: true},
			regular(1),
		}, []string{
			"config r0 [1 2] trans=false",
			"view g [1#1] by 1#1",
			"view g [1#1 2#1] by 2#1",
			"config r0 [1] trans=true",
			"config r0 [1] trans=false",
			"view g [1#1] by 0#0",
		}},
		{"foreign payloads are ignored", []any{evs.Message{Payload: []byte("not an envelope")}, join(a, "g")}, []string{
			"view g [1#1] by 1#1",
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			core, sink, _ := newTestCore(1)
			for i, item := range tt.stream {
				switch e := item.(type) {
				case group.Envelope:
					core.OnRingMessage(0, ordered(t, e, uint64(i+1)))
				case evs.Event:
					feed(core, 0, e)
				}
			}
			if !reflect.DeepEqual(sink.events, tt.want) {
				t.Fatalf("sink saw\n  %q\nwant\n  %q", sink.events, tt.want)
			}
		})
	}
}

// TestSingleRingEquivalence: one ring through the core is exactly that
// ring's order — every event emits at its own push — and the merge layer
// stays silent: no control envelope is ever submitted.
func TestSingleRingEquivalence(t *testing.T) {
	core, sink, sub := newTestCore(1)
	core.OnRingConfig(0, regular(1, 2))
	var want []string
	want = append(want, "config r0 [1 2] trans=false")
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("m%d", i)
		core.OnRingMessage(0, ordered(t, group.Envelope{
			Kind: group.OpMessage, Sender: cid(2, 7), Groups: []string{"g"}, Payload: []byte(p),
		}, uint64(i+1)))
		want = append(want, fmt.Sprintf("msg r0 message %q to=[]", p))
		if len(sink.events) != len(want) {
			t.Fatalf("push %d did not emit immediately: %d events, want %d", i, len(sink.events), len(want))
		}
	}
	core.OnRingConfig(0, regular(1))
	want = append(want, "config r0 [1] trans=false")
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("sink saw\n  %q\nwant\n  %q", sink.events, want)
	}
	if n := sub.count(); n != 0 {
		t.Fatalf("single ring submitted %d control envelopes (%v)", n, sub.got)
	}
	if core.Merger().Pending() != 0 {
		t.Fatalf("single ring left %d items pending", core.Merger().Pending())
	}
}

// nopSink discards the core's output.
type nopSink struct{}

func (nopSink) Message(int, *group.Envelope, evs.Service, uint64, []group.ClientID) {}
func (nopSink) View(string, []group.ClientID, group.ClientID)                       {}
func (nopSink) Config(int, evs.ConfigChange)                                        {}
func (nopSink) Rejected(group.ClientID, group.OpKind, error)                        {}
func (nopSink) Migrated(string, int, int)                                           {}

// TestOnRingMessageAllocFree: once a ring's stream is flowing, an ordered
// message to one group — decode, merge queue, delivery set, emission —
// allocates nothing in the core. A message to several groups allocates
// only its decoded group list; the union is built in the core's scratch.
func TestOnRingMessageAllocFree(t *testing.T) {
	core := New(Config{Shards: 1, Self: 1, Submit: &recSubmit{}, Sink: nopSink{}})
	core.OnRingConfig(0, regular(1, 2))
	for i, g := range []string{"g", "h", "g", "h"} {
		core.OnRingMessage(0, ordered(t, group.Envelope{
			Kind: group.OpJoin, Sender: cid(evs.ProcID(1+i%2), uint32(i)), Groups: []string{g},
		}, uint64(i+1)))
	}
	for _, c := range []struct {
		groups []string
		want   float64
	}{{[]string{"g"}, 0}, {[]string{"g", "h"}, 1}} {
		m := ordered(t, group.Envelope{
			Kind: group.OpMessage, Sender: cid(2, 7), Groups: c.groups, Payload: []byte("payload"),
		}, 9)
		core.OnRingMessage(0, m) // warm the interned names and the scratch
		if n := testing.AllocsPerRun(1000, func() { core.OnRingMessage(0, m) }); n > c.want {
			t.Fatalf("an ordered message to %v allocates %.1f times in the core, want %v", c.groups, n, c.want)
		}
	}
}

// twoRings is a 2-ring core whose test pushes never block: after every
// event it orders a skip on the other ring claiming far past it.
type twoRings struct {
	t    *testing.T
	core *Core
	skip uint64
}

func (x *twoRings) push(ring int, ev evs.Event) {
	feed(x.core, ring, ev)
	x.skip += 1 << 20
	x.core.OnRingMessage(1-ring, ordered(x.t, group.Envelope{Kind: group.OpSkip, Sender: cid(1, 0), Arg: x.skip}, 0))
}

func (x *twoRings) env(ring int, env group.Envelope) { x.push(ring, ordered(x.t, env, 1)) }

// TestStragglerOnMigratedAwayRing: after a group migrates, a message that
// still arrives on its old ring (the sender raced the route flip) is
// delivered against the group's re-homed state, and a disconnect empties
// the client from every partition at one emission point.
func TestStragglerOnMigratedAwayRing(t *testing.T) {
	core, sink, sub := newTestCore(2)
	x := &twoRings{t: t, core: core}
	g := "g-0"
	from := group.RingOf(g, 2)
	to := 1 - from
	other := "g-1" // hashes to the other ring
	if group.RingOf(other, 2) != to {
		t.Fatal("test groups collapsed onto one ring")
	}
	a := cid(1, 1)
	x.push(from, regular(1))
	x.push(to, regular(1))
	x.env(from, group.Envelope{Kind: group.OpJoin, Sender: a, Groups: []string{g}})
	x.env(to, group.Envelope{Kind: group.OpJoin, Sender: a, Groups: []string{other}})

	// Migrate g: the Begin orders on the old ring, this node's ack is
	// submitted at the Begin's emission, and its emission closes the
	// migration.
	done, err := core.BeginMigrate(g, from, to)
	if err != nil {
		t.Fatal(err)
	}
	begin := sub.raw[len(sub.raw)-1]
	x.push(begin.ring, evs.Message{Payload: begin.enc, Service: begin.svc})
	var ack *submitted
	for i := range sub.raw {
		if env, _ := group.DecodeEnvelope(sub.raw[i].enc); env.Kind == group.OpMigrateAck {
			ack = &sub.raw[i]
		}
	}
	if ack == nil || ack.ring != from {
		t.Fatalf("no migrate ack submitted on the source ring: %v", sub.got)
	}
	x.push(ack.ring, evs.Message{Payload: ack.enc, Service: ack.svc})
	select {
	case <-done:
	default:
		t.Fatalf("migration did not close; sink saw %q", sink.events)
	}
	if r := core.RingOfGroup(g); r != to {
		t.Fatalf("group routes to ring %d after migration, want %d", r, to)
	}

	sink.events = nil
	x.env(from, group.Envelope{Kind: group.OpMessage, Sender: a, Groups: []string{g}, Payload: []byte("late")})
	x.env(from, group.Envelope{Kind: group.OpLeave, Sender: a, Groups: []string{g}})
	x.env(to, group.Envelope{Kind: group.OpJoin, Sender: a, Groups: []string{g}})
	x.env(0, group.Envelope{Kind: group.OpDisconnect, Sender: a})
	want := []string{
		fmt.Sprintf(`msg r%d message "late" to=[1#1]`, from),
		"view g-0 [] by 1#1", // the straggling leave found the re-homed state too
		"view g-0 [1#1] by 1#1",
		"view g-0 [] by 1#1",
		"view g-1 [] by 1#1",
	}
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("sink saw\n  %q\nwant\n  %q", sink.events, want)
	}
	if got := core.GroupsOf(a); len(got) != 0 {
		t.Fatalf("disconnected client still in %v", got)
	}
}

// TestDepartedDaemonsAnnounceOnce is the regression for nondeterministic
// group views when several daemons leave in one configuration change: each
// affected group must be announced exactly once, with its final
// membership, in group-name order — identically on every node. The former
// per-host code ranged over a map of departed daemons and announced after
// each drop, so nodes sent different intermediate views in different
// orders; repeated to beat map-order luck.
func TestDepartedDaemonsAnnounceOnce(t *testing.T) {
	want := []string{
		"config r0 [1] trans=false",
		"view alpha [1#1] by 0#0",
		"view beta [1#1] by 0#0",
		"view gamma [1#1] by 0#0",
	}
	for round := 0; round < 64; round++ {
		core, sink, _ := newTestCore(1)
		core.OnRingConfig(0, regular(1, 2, 3, 4))
		seq := uint64(0)
		for _, g := range []string{"gamma", "alpha", "beta"} {
			for d := evs.ProcID(1); d <= 4; d++ {
				seq++
				core.OnRingMessage(0, ordered(t, group.Envelope{
					Kind: group.OpJoin, Sender: cid(d, 1), Groups: []string{g},
				}, seq))
			}
		}
		sink.events = nil
		core.OnRingConfig(0, regular(1)) // daemons 2, 3 and 4 leave together
		if !reflect.DeepEqual(sink.events, want) {
			t.Fatalf("round %d: sink saw\n  %q\nwant\n  %q", round, sink.events, want)
		}
	}
}

// TestBeginMigrateRefusedLeavesNoWaiter is the regression for the leaked
// NotifyMigrated waiter: when the Begin's submission is refused, the
// merger must hold no waiter for the group afterwards.
func TestBeginMigrateRefusedLeavesNoWaiter(t *testing.T) {
	core, _, sub := newTestCore(2)
	g := "g-0"
	from := group.RingOf(g, 2)
	sub.refuse = true
	if _, err := core.BeginMigrate(g, from, 1-from); !errors.Is(err, errRefused) {
		t.Fatalf("BeginMigrate = %v, want the submit error", err)
	}
	if n := core.Merger().Waiters(g); n != 0 {
		t.Fatalf("merger still holds %d waiter(s) after a refused Begin", n)
	}
	if err := core.Migrate(g, 1-from); !errors.Is(err, errRefused) {
		t.Fatalf("Migrate = %v, want the submit error", err)
	}
	if n := core.Merger().Waiters(g); n != 0 {
		t.Fatalf("merger still holds %d waiter(s) after a refused Migrate", n)
	}

	// Already home: nothing to order, nothing to wait for.
	sub.refuse = false
	done, err := core.BeginMigrate(g, from, from)
	if err != nil || sub.count() != 0 {
		t.Fatalf("already-home BeginMigrate = %v, submitted %v", err, sub.got)
	}
	select {
	case <-done:
	default:
		t.Fatal("already-home BeginMigrate returned an open channel")
	}
	if _, err := core.BeginMigrate(g, from, 2); err == nil {
		t.Fatal("out-of-range target ring accepted")
	}
}
