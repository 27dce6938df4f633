package merge

import (
	"fmt"
	"reflect"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/group"
)

// recOut records the merger's output in order and captures async submits
// instead of running them.
type recOut struct {
	events  []string
	submits []struct {
		ring int
		env  group.Envelope
	}
	migrated []string
}

func (o *recOut) Deliver(ring int, env *group.Envelope, svc evs.Service, seq uint64) {
	o.events = append(o.events, fmt.Sprintf("d%d:%s:%s", ring, env.Kind, env.Payload))
}
func (o *recOut) Config(ring int, cc evs.ConfigChange) {
	o.events = append(o.events, fmt.Sprintf("c%d:%v", ring, cc.Config.Members))
}
func (o *recOut) SubmitAsync(ring int, env group.Envelope) {
	o.submits = append(o.submits, struct {
		ring int
		env  group.Envelope
	}{ring, env})
}
func (o *recOut) Migrated(g string, from, to int) {
	o.migrated = append(o.migrated, fmt.Sprintf("%s:%d->%d", g, from, to))
}

// of filters the captured async submits down to one kind (the merger
// submits skip claims, migration acks and frontier announcements).
func (o *recOut) of(kind group.OpKind) []struct {
	ring int
	env  group.Envelope
} {
	var out []struct {
		ring int
		env  group.Envelope
	}
	for _, s := range o.submits {
		if s.env.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func (o *recOut) acks() []struct {
	ring int
	env  group.Envelope
} {
	return o.of(group.OpMigrateAck)
}

func msg(sender evs.ProcID, gs []string, payload string) *group.Envelope {
	return &group.Envelope{
		Kind: group.OpMessage, Sender: group.ClientID{Daemon: sender, Local: 1},
		Groups: gs, Payload: []byte(payload),
	}
}

// pace orders a skip on ring claiming up to slot target, as a blocked
// member's claim would.
func pace(m *Merger, ring int, target uint64) {
	skip := group.Envelope{Kind: group.OpSkip, Sender: group.ClientID{Daemon: 1}, Arg: target}
	m.PushEnvelope(ring, &skip, evs.Agreed)
}

func cfgChange(members ...evs.ProcID) evs.ConfigChange {
	return evs.ConfigChange{Config: evs.Configuration{Members: members}}
}

func newTestMerger(t *testing.T, shards int, self evs.ProcID) (*Merger, *group.ShardedTable, *recOut) {
	t.Helper()
	tbl := group.NewShardedTable(shards)
	out := &recOut{}
	m := New(Config{Shards: shards, Self: self, Table: tbl, Out: out})
	return m, tbl, out
}

// TestMergeLexOrder: items are emitted in ascending (slot, ring) order
// regardless of arrival interleaving, and the sequence is identical for
// two mergers fed the same per-ring streams in different arrival orders.
func TestMergeLexOrder(t *testing.T) {
	run := func(order []int) []string {
		m, _, out := newTestMerger(t, 2, 1)
		m.PushConfig(0, cfgChange(1, 2))
		m.PushConfig(1, cfgChange(1, 2))
		streams := map[int][]*group.Envelope{
			0: {msg(1, []string{"a"}, "a1"), msg(1, []string{"a"}, "a2"), msg(1, []string{"a"}, "a3")},
			1: {msg(2, []string{"b"}, "b1"), msg(2, []string{"b"}, "b2"), msg(2, []string{"b"}, "b3")},
		}
		idx := map[int]int{}
		for _, ring := range order {
			m.PushEnvelope(ring, streams[ring][idx[ring]], evs.Agreed)
			idx[ring]++
		}
		return out.events
	}
	a := run([]int{0, 1, 0, 1, 0, 1})
	b := run([]int{1, 1, 1, 0, 0, 0})
	c := run([]int{0, 0, 0, 1, 1, 1})
	want := []string{
		"c0:[1 2]", "c1:[1 2]",
		"d0:message:a1", "d1:message:b1",
		"d0:message:a2", "d1:message:b2",
		"d0:message:a3", "d1:message:b3",
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("merged order = %v, want %v", a, want)
	}
	if !reflect.DeepEqual(b, a) || !reflect.DeepEqual(c, a) {
		t.Fatalf("arrival order changed the merge:\n a=%v\n b=%v\n c=%v", a, b, c)
	}
}

// TestBlockedPushClaimsSkip: the push that blocks on an idle ring orders
// one skip there, DefaultSkipAhead past the head; further blocked pushes
// claim nothing while it is in flight; the ordered claim releases the head
// and covers a following burst with no further claims.
func TestBlockedPushClaimsSkip(t *testing.T) {
	m, _, out := newTestMerger(t, 2, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))
	n := len(out.events)

	// Ring 1 has traffic; ring 0 is idle past its config change (slot 1),
	// so the message at ring 1's slot 2 waits on ring 0's slot 2.
	m.PushEnvelope(1, msg(2, []string{"b"}, "b1"), evs.Agreed)
	if len(out.events) != n {
		t.Fatalf("emitted %v past an idle ring", out.events[n:])
	}
	skips := out.of(group.OpSkip)
	if len(skips) != 1 || skips[0].ring != 0 || skips[0].env.Arg != 2+DefaultSkipAhead {
		t.Fatalf("skips = %+v, want one on ring 0 claiming %d", skips, 2+DefaultSkipAhead)
	}
	m.PushEnvelope(1, msg(2, []string{"b"}, "b2"), evs.Agreed)
	if got := len(out.of(group.OpSkip)); got != 1 {
		t.Fatalf("%d skips after a second blocked push, want the one in flight", got)
	}

	claim := skips[0].env
	m.PushEnvelope(0, &claim, evs.Agreed)
	if got := out.events[n:]; !reflect.DeepEqual(got, []string{"d1:message:b1", "d1:message:b2"}) {
		t.Fatalf("after the claim got %v", got)
	}
	for i := 0; i < int(DefaultSkipAhead)-1; i++ {
		m.PushEnvelope(1, msg(2, []string{"b"}, "x"), evs.Agreed)
	}
	if got := m.Pending(); got != 0 {
		t.Fatalf("pending = %d after the claimed burst, want 0", got)
	}
	if got := len(out.of(group.OpSkip)); got != 1 {
		t.Fatalf("%d skips after the claimed burst, want 1", got)
	}
}

// TestClaimOnlyByMembers: any blocked member of the idle ring claims (a
// designated claimer could deadlock after a partition, since blockedness
// is per-daemon), but a daemon outside the ring's configuration never
// does — it could not order the claim anyway.
func TestClaimOnlyByMembers(t *testing.T) {
	m, _, out := newTestMerger(t, 2, 2) // a member, not the representative
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))
	m.PushEnvelope(1, msg(2, []string{"b"}, "b1"), evs.Agreed)
	if skips := out.of(group.OpSkip); len(skips) != 1 || skips[0].ring != 0 {
		t.Fatalf("blocked member did not claim the idle ring: %+v", skips)
	}

	m, _, out = newTestMerger(t, 2, 3) // not in ring 0's configuration
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2, 3))
	for i := 0; i < 3; i++ {
		m.PushEnvelope(1, msg(2, []string{"b"}, "b"), evs.Agreed)
	}
	if m.Pending() != 3 {
		t.Fatalf("pending = %d, want 3 blocked", m.Pending())
	}
	if skips := out.of(group.OpSkip); len(skips) != 0 {
		t.Fatalf("non-member claimed: %+v", skips)
	}
}

// TestDroppedClaimReissuedAtConfigChange: a claim the Out drops (its ring
// refused it while re-forming) is claimed again once that ring slots a
// configuration change, with no timer.
func TestDroppedClaimReissuedAtConfigChange(t *testing.T) {
	m, _, out := newTestMerger(t, 2, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))
	for _, p := range []string{"b1", "b2", "b3"} {
		m.PushEnvelope(1, msg(2, []string{"b"}, p), evs.Agreed)
	}
	if got := len(out.of(group.OpSkip)); got != 1 {
		t.Fatalf("%d skips, want 1 (then dropped)", got)
	}

	// Ring 0 re-forms: its change takes slot 2 and emits, releasing b1 at
	// slot 2; b2 at slot 3 blocks on ring 0 again.
	m.PushConfig(0, cfgChange(1, 2))
	skips := out.of(group.OpSkip)
	if len(skips) != 2 || skips[1].ring != 0 || skips[1].env.Arg != 3+DefaultSkipAhead {
		t.Fatalf("skips = %+v, want a second claim on ring 0 for %d", skips, 3+DefaultSkipAhead)
	}
	claim := skips[1].env
	m.PushEnvelope(0, &claim, evs.Agreed)
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after the re-issued claim, want 0", m.Pending())
	}
}

// TestMigrationHappyPath walks a 2-daemon migration: Begin flips the
// route and solicits acks, target-ring traffic buffers, the last ack
// closes, re-homes, and replays.
func TestMigrationHappyPath(t *testing.T) {
	m, tbl, out := newTestMerger(t, 2, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))

	// "g-1" hashes to ring 0. Two members.
	alice := group.ClientID{Daemon: 1, Local: 7}
	bob := group.ClientID{Daemon: 2, Local: 9}
	if err := tbl.For("g-1").Join(alice, "g-1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.For("g-1").Join(bob, "g-1"); err != nil {
		t.Fatal(err)
	}

	begin, err := m.BeginEnvelope("g-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	wait := m.NotifyMigrated("g-1")
	m.PushEnvelope(0, &begin, evs.Agreed)

	// Route flipped at Begin emission; our ack was solicited on ring 0.
	if got := tbl.Ring("g-1"); got != 1 {
		t.Fatalf("route after Begin = %d, want 1", got)
	}
	if !m.Migrating("g-1") {
		t.Fatal("not migrating after Begin")
	}
	acks := out.acks()
	if len(acks) != 1 || acks[0].ring != 0 || acks[0].env.Arg != 1 {
		t.Fatalf("acks = %+v, want one epoch-1 ack on ring 0", acks)
	}

	// Post-flip traffic routed to ring 1 buffers at emission.
	m.PushEnvelope(1, msg(1, []string{"g-1"}, "late"), evs.Agreed)
	nEvents := len(out.events)

	// A straggler on ring 0 (submitted pre-flip) still delivers there.
	m.PushEnvelope(0, msg(2, []string{"g-1"}, "straggler"), evs.Agreed)
	if got := out.events[nEvents:]; !reflect.DeepEqual(got, []string{"d0:message:straggler"}) {
		t.Fatalf("straggler delivery = %v", got)
	}
	nEvents = len(out.events)

	// Daemon 1's ack (ours) arrives; daemon 2's follows and closes.
	ack1 := acks[0].env
	m.PushEnvelope(0, &ack1, evs.Agreed)
	select {
	case <-wait:
		t.Fatal("closed after one ack of two")
	default:
	}
	ack2 := ack1
	ack2.Sender = group.ClientID{Daemon: 2}
	m.PushEnvelope(0, &ack2, evs.Agreed)
	// The acks sit at ring 0 slots the idle ring 1 has not passed yet;
	// pacing ring 1 lets them emit, which closes the migration.
	pace(m, 1, 100)

	select {
	case <-wait:
	default:
		t.Fatal("migration did not close after all acks")
	}
	if !reflect.DeepEqual(out.migrated, []string{"g-1:0->1"}) {
		t.Fatalf("migrated = %v", out.migrated)
	}
	// Members moved; buffered traffic replayed at the close point on the
	// target ring.
	if got := tbl.Table(1).Members("g-1"); !reflect.DeepEqual(got, []group.ClientID{alice, bob}) {
		t.Fatalf("target members = %v", got)
	}
	if got := tbl.Table(0).Members("g-1"); got != nil {
		t.Fatalf("source members not cleared: %v", got)
	}
	if got := out.events[nEvents:]; !reflect.DeepEqual(got, []string{"d1:message:late"}) {
		t.Fatalf("replay = %v", got)
	}
	if m.Migrating("g-1") {
		t.Fatal("still migrating after close")
	}
	// Post-close traffic on the target ring delivers directly (ring 0,
	// now the idle one, needs pacing past ring 1's claimed slots).
	pace(m, 0, 200)
	m.PushEnvelope(1, msg(2, []string{"g-1"}, "after"), evs.Agreed)
	if got := out.events[len(out.events)-1]; got != "d1:message:after" {
		t.Fatalf("post-close delivery = %v", got)
	}
}

// TestMigrationWaivesDepartedMember: a member that leaves the source
// ring's configuration mid-migration is waived at the config change's
// emission, closing the drain without its ack.
func TestMigrationWaivesDepartedMember(t *testing.T) {
	m, tbl, out := newTestMerger(t, 2, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))
	if err := tbl.For("g-1").Join(group.ClientID{Daemon: 1, Local: 7}, "g-1"); err != nil {
		t.Fatal(err)
	}

	begin, err := m.BeginEnvelope("g-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.PushEnvelope(0, &begin, evs.Agreed)
	ack1 := out.acks()[0].env
	m.PushEnvelope(0, &ack1, evs.Agreed)
	if !m.Migrating("g-1") {
		t.Fatal("closed without daemon 2's ack or departure")
	}

	// Daemon 2 leaves ring 0; keep ring 1 paced so the change emits.
	m.PushConfig(0, cfgChange(1))
	skip := group.Envelope{Kind: group.OpSkip, Sender: group.ClientID{Daemon: 1}, Arg: 100}
	m.PushEnvelope(1, &skip, evs.Agreed)
	if m.Migrating("g-1") {
		t.Fatal("departed member not waived")
	}
	if got := tbl.Ring("g-1"); got != 1 {
		t.Fatalf("route after waived close = %d, want 1", got)
	}
}

// TestChainedMigration: a second Begin submitted while the first is in
// flight buffers on the target ring and starts at replay, landing the
// group on the final ring with state intact.
func TestChainedMigration(t *testing.T) {
	m, tbl, out := newTestMerger(t, 3, 1)
	for r := 0; r < 3; r++ {
		m.PushConfig(r, cfgChange(1))
	}
	// "g-5" hashes to ring 0 of 3.
	g := ""
	for _, cand := range []string{"g-0", "g-1", "g-2", "g-3", "g-4", "g-5"} {
		if tbl.Ring(cand) == 0 {
			g = cand
			break
		}
	}
	if g == "" {
		t.Fatal("no candidate group on ring 0")
	}
	member := group.ClientID{Daemon: 1, Local: 3}
	if err := tbl.For(g).Join(member, g); err != nil {
		t.Fatal(err)
	}

	begin1, _ := m.BeginEnvelope(g, 1)
	m.PushEnvelope(0, &begin1, evs.Agreed)
	// Chained migration 1 -> 2 submitted mid-flight lands on ring 1 (the
	// flipped route) and is buffered.
	begin2, _ := m.BeginEnvelope(g, 2)
	m.PushEnvelope(1, &begin2, evs.Agreed)

	// Close the first migration: sole member's ack (ring 2 is idle and
	// must be paced past the ack's slot for it to emit).
	ack := out.acks()[0].env
	m.PushEnvelope(0, &ack, evs.Agreed)
	pace(m, 2, 100)

	// The chained Begin replayed and opened migration #2 from ring 1.
	if !m.Migrating(g) {
		t.Fatal("chained migration did not start at replay")
	}
	if got := tbl.Ring(g); got != 2 {
		t.Fatalf("route after chained Begin = %d, want 2", got)
	}
	// Second ack solicitation is on ring 1 with epoch 2.
	ak := out.acks()
	last := ak[len(ak)-1]
	if last.ring != 1 || last.env.Arg != 2 {
		t.Fatalf("chained ack solicitation = %+v", last)
	}
	ack2 := last.env
	m.PushEnvelope(1, &ack2, evs.Agreed)
	pace(m, 0, 100)
	if m.Migrating(g) {
		t.Fatal("chained migration did not close")
	}
	if got := tbl.Table(2).Members(g); !reflect.DeepEqual(got, []group.ClientID{member}) {
		t.Fatalf("final members = %v", got)
	}
}

// TestStaleAndMisroutedControlIgnored: Begins on a ring unrelated to the
// group's route, acks answering the wrong Begin, and out-of-range
// targets are all ignored.
func TestStaleAndMisroutedControlIgnored(t *testing.T) {
	// 3 shards so "neither source nor target" is expressible. "g-1"
	// hashes to ring 0 of 3 (pinned by the sharded routing tests).
	m, tbl, out := newTestMerger(t, 3, 1)
	for r := 0; r < 3; r++ {
		m.PushConfig(r, cfgChange(1))
	}
	g := ""
	for _, cand := range []string{"g-0", "g-1", "g-2", "g-3", "g-4", "g-5"} {
		if tbl.Ring(cand) == 0 {
			g = cand
			break
		}
	}
	if g == "" {
		t.Fatal("no candidate group on ring 0")
	}

	// Begin on a ring that is neither the group's route nor its target:
	// ignored.
	begin := group.Envelope{
		Kind: group.OpMigrateBegin, Sender: group.ClientID{Daemon: 1, Local: 50},
		Groups: []string{g}, Arg: 2, // g lives on ring 0; Begin pushed on ring 1
	}
	m.PushEnvelope(1, &begin, evs.Agreed)
	if m.Migrating(g) {
		t.Fatal("misrouted Begin accepted")
	}
	if got := tbl.Ring(g); got != 0 {
		t.Fatalf("route corrupted by misrouted Begin: %d", got)
	}

	// Self-targeted Begin: ignored.
	self := group.Envelope{
		Kind: group.OpMigrateBegin, Sender: group.ClientID{Daemon: 1, Local: 51},
		Groups: []string{g}, Arg: 0,
	}
	m.PushEnvelope(0, &self, evs.Agreed)
	if m.Migrating(g) {
		t.Fatal("self-targeted Begin accepted")
	}

	// Ack with no migration in flight: ignored (no panic, no state).
	stray := group.Envelope{
		Kind: group.OpMigrateAck, Sender: group.ClientID{Daemon: 1},
		Groups: []string{g}, Arg: 99,
	}
	m.PushEnvelope(0, &stray, evs.Agreed)

	// Pace the other rings so everything above (and below) emits.
	pace(m, 1, 100)
	pace(m, 2, 100)

	// Ack answering a DIFFERENT Begin than the one in flight: ignored.
	realBegin, err := m.BeginEnvelope(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.PushEnvelope(0, &realBegin, evs.Agreed)
	if !m.Migrating(g) {
		t.Fatal("legitimate Begin ignored")
	}
	wrong := out.acks()[0].env
	wrong.Target = group.ClientID{Daemon: 9, Local: 9}
	m.PushEnvelope(0, &wrong, evs.Agreed)
	pace(m, 1, 100)
	pace(m, 2, 100)
	if !m.Migrating(g) {
		t.Fatal("ack for a different Begin closed the migration")
	}
	// The matching ack does close it.
	right := out.acks()[0].env
	m.PushEnvelope(0, &right, evs.Agreed)
	if m.Migrating(g) {
		t.Fatal("matching ack did not close the migration")
	}

	// BeginEnvelope validates targets.
	if _, err := m.BeginEnvelope(g, 3); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := m.BeginEnvelope("", 1); err == nil {
		t.Fatal("invalid group accepted")
	}
}

// TestMigrationRepairJoin: after a Begin straddles a partition, some
// members route the group at the target already while others still
// route it at the source. A re-issued Begin on the source ring must be
// accepted by BOTH kinds of member — the already-flipped ones join the
// drain with no-op flip and re-home — so the ring-wide required set can
// close and everyone leaves with one agreed route.
func TestMigrationRepairJoin(t *testing.T) {
	m, tbl, out := newTestMerger(t, 2, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))

	// This member already routes "g-1" (hash-home ring 0) at ring 1 — the
	// aftermath of a Begin only its partition component ordered.
	alice := group.ClientID{Daemon: 1, Local: 7}
	if err := tbl.Table(1).Join(alice, "g-1"); err != nil {
		t.Fatal(err)
	}
	tbl.SetRoute("g-1", 1)

	// The repair Begin arrives on ring 0 (the divergent members' route).
	begin, err := m.BeginEnvelope("g-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.PushEnvelope(0, &begin, evs.Agreed)
	if !m.Migrating("g-1") {
		t.Fatal("already-flipped member did not join the repair migration")
	}
	acks := out.acks()
	if len(acks) != 1 || acks[0].ring != 0 {
		t.Fatalf("repair acks = %+v, want one on ring 0", acks)
	}

	// Both members ack; the close is a no-op re-home that converges the
	// route for everyone.
	ack1 := acks[0].env
	m.PushEnvelope(0, &ack1, evs.Agreed)
	ack2 := ack1
	ack2.Sender = group.ClientID{Daemon: 2}
	m.PushEnvelope(0, &ack2, evs.Agreed)
	pace(m, 1, 100)
	if m.Migrating("g-1") {
		t.Fatal("repair migration did not close")
	}
	if got := tbl.Ring("g-1"); got != 1 {
		t.Fatalf("route after repair = %d, want 1", got)
	}
	if got := tbl.Table(1).Members("g-1"); !reflect.DeepEqual(got, []group.ClientID{alice}) {
		t.Fatalf("members disturbed by no-op re-home: %v", got)
	}
}

// nopOut discards the merger's output without allocating.
type nopOut struct{ delivered int }

func (o *nopOut) Deliver(int, *group.Envelope, evs.Service, uint64) { o.delivered++ }
func (o *nopOut) Config(int, evs.ConfigChange)                      {}
func (o *nopOut) SubmitAsync(int, group.Envelope)                   {}
func (o *nopOut) Migrated(string, int, int)                         {}

// TestPushEmitAllocFree gates the merge's steady state: a push that
// completes an emission allocates nothing, with one ring (where every push
// emits) and with two (pushes alternating rings, so each one releases the
// other ring's head). The per-ring queue keeps its backing array across
// drains; dropping it on every drain cost one allocation per message.
func TestPushEmitAllocFree(t *testing.T) {
	for _, shards := range []int{1, 2} {
		out := &nopOut{}
		m := New(Config{Shards: shards, Self: 1, Table: group.NewShardedTable(shards), Out: out})
		env := msg(1, []string{"g"}, "x")
		ring := 0
		push := func() {
			m.PushEnvelopeSeq(ring, env, evs.Agreed, 1)
			ring = (ring + 1) % shards
		}
		push() // warm the queues' backing arrays
		push()
		before := out.delivered
		if n := testing.AllocsPerRun(1000, push); n != 0 {
			t.Errorf("%d rings: PushEnvelopeSeq that emits allocates %.2f/op, want 0", shards, n)
		}
		if out.delivered-before < 1000 {
			t.Errorf("%d rings: only %d of 1001 pushes emitted", shards, out.delivered-before)
		}
	}
}

// TestSingleRingIsDegenerateMerge: with one ring every item emits at its
// own push in stream order, and no control envelope — frontier
// announcement or skip claim — is ever submitted.
func TestSingleRingIsDegenerateMerge(t *testing.T) {
	m, _, out := newTestMerger(t, 1, 1)
	m.PushConfig(0, cfgChange(1, 2))
	m.PushEnvelope(0, msg(2, []string{"g"}, "a"), evs.Agreed)
	m.PushEnvelope(0, msg(1, []string{"g"}, "b"), evs.Safe)
	want := []string{"c0:[1 2]", "d0:message:a", "d0:message:b"}
	if !reflect.DeepEqual(out.events, want) {
		t.Fatalf("events = %v, want %v", out.events, want)
	}
	if len(out.submits) != 0 {
		t.Fatalf("single ring submitted control envelopes: %v", out.submits)
	}
	if m.Pending() != 0 {
		t.Fatalf("single ring left %d pending", m.Pending())
	}
}

// TestQueueKeepsOrderAcrossCompaction drives one ring's queue through its
// slide-to-front path: items queue behind a blocked head, drain partially,
// and more arrive — emission order must stay the stream order.
func TestQueueKeepsOrderAcrossCompaction(t *testing.T) {
	m, _, out := newTestMerger(t, 2, 1)
	n := 0
	pushN := func(k int) {
		for i := 0; i < k; i++ {
			m.PushEnvelope(0, msg(1, []string{"g"}, fmt.Sprint(n)), evs.Agreed)
			n++
		}
	}
	pushN(5)       // all blocked behind idle ring 1
	pace(m, 1, 3)  // releases slots 1..3, leaving a live tail mid-array
	pushN(20)      // forces the slide and growth
	pace(m, 1, 99) // releases everything
	if len(out.events) != n {
		t.Fatalf("emitted %d of %d", len(out.events), n)
	}
	for i, ev := range out.events {
		if want := fmt.Sprintf("d0:message:%d", i); ev != want {
			t.Fatalf("event %d = %q, want %q", i, ev, want)
		}
	}
}

// TestHeldFrom: HeldFrom names the delivery position of the oldest
// envelope a ring still has queued — a configuration change in front of
// it holds no payload — or buffered by a migration into the ring, and
// reports nothing held once the ring's envelopes have all been emitted.
func TestHeldFrom(t *testing.T) {
	m, tbl, _ := newTestMerger(t, 2, 1)
	held := func(ring int, wantCfg, wantSeq uint64, wantOK bool) {
		t.Helper()
		if cfg, seq, ok := m.HeldFrom(ring); cfg != wantCfg || seq != wantSeq || ok != wantOK {
			t.Fatalf("ring %d: HeldFrom = (%d, %d, %v), want (%d, %d, %v)", ring, cfg, seq, ok, wantCfg, wantSeq, wantOK)
		}
	}
	m.PushConfig(0, cfgChange(1, 2))
	m.PushConfig(1, cfgChange(1, 2))
	held(0, 0, 0, false)

	// Ring 1 is idle, so from slot 3 on ring 0's items wait behind its
	// next slot: a configuration change, then two envelopes.
	m.PushEnvelopeAt(0, msg(2, []string{"a"}, "a1"), evs.Agreed, 7, 3)
	held(0, 0, 0, false)
	m.PushConfig(0, evs.ConfigChange{Transitional: true})
	m.PushEnvelopeAt(0, msg(2, []string{"a"}, "a2"), evs.Agreed, 7, 4)
	m.PushEnvelopeAt(0, msg(2, []string{"a"}, "a3"), evs.Agreed, 7, 5)
	held(0, 7, 4, true)
	held(1, 0, 0, false)
	pace(m, 1, 3)
	held(0, 7, 5, true)
	pace(m, 1, 100)
	held(0, 0, 0, false)

	// Traffic for a group migrating into ring 1 is buffered past its
	// emission, until the migration closes.
	if err := tbl.For("g-1").Join(group.ClientID{Daemon: 1, Local: 7}, "g-1"); err != nil {
		t.Fatal(err)
	}
	begin, err := m.BeginEnvelope("g-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.PushEnvelope(0, &begin, evs.Agreed)
	pace(m, 0, 200)
	m.PushEnvelopeAt(1, msg(1, []string{"g-1"}, "late"), evs.Agreed, 9, 30)
	if m.Pending() != 0 {
		t.Fatalf("%d items still queued", m.Pending())
	}
	held(1, 9, 30, true)
	for _, daemon := range []evs.ProcID{1, 2} {
		ack := group.Envelope{Kind: group.OpMigrateAck, Sender: group.ClientID{Daemon: daemon}, Target: begin.Sender, Groups: []string{"g-1"}, Arg: 1}
		m.PushEnvelope(0, &ack, evs.Agreed)
	}
	held(1, 9, 30, true)
	pace(m, 1, 300)
	if m.Migrating("g-1") {
		t.Fatal("migration did not close")
	}
	held(1, 0, 0, false)
	if n := testing.AllocsPerRun(100, func() { m.HeldFrom(0) }); n != 0 {
		t.Fatalf("HeldFrom allocates %.1f times", n)
	}
}
