package daemon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/groupcore"
)

// collectPayloads drains n Message deliveries from c, in order.
func collectPayloads(t *testing.T, c *client.Client, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, string(nextMessage(t, c, 15*time.Second).Payload))
	}
	return out
}

// TestShardedGlobalOrderAcrossGroups pins the tentpole guarantee at the
// client API: with the cross-ring merger in the delivery path, a client
// subscribed to groups on DIFFERENT rings sees one global order — the
// full interleaved delivery sequence across both groups is identical on
// every daemon, not just each group's own subsequence (which is all PR 4
// could promise).
func TestShardedGlobalOrderAcrossGroups(t *testing.T) {
	daemons := startShardedDaemons(t, 2, 2)
	gA, gB := "g-0", "g-1" // ring 1 and ring 0 by the pinned hash
	if group.RingOf(gA, 2) == group.RingOf(gB, 2) {
		t.Fatal("test groups collapsed onto one ring")
	}

	alice := dial(t, daemons[0], "alice")
	bob := dial(t, daemons[1], "bob")
	for _, g := range []string{gA, gB} {
		if err := alice.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, alice, g, 5*time.Second)
		if err := bob.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, bob, g, 5*time.Second)
		nextView(t, alice, g, 5*time.Second)
	}

	// Interleave sends from both daemons into both rings, so neither the
	// per-group subsequences nor any single ring's stream could explain an
	// identical total sequence on their own.
	const rounds = 8
	for k := 0; k < rounds; k++ {
		for _, s := range []struct {
			c *client.Client
			g string
		}{{alice, gA}, {bob, gB}, {alice, gB}, {bob, gA}} {
			svc := evs.Agreed
			if k%2 == 1 {
				svc = evs.Safe
			}
			if err := s.c.Multicast(svc, []byte(fmt.Sprintf("%s/%d", s.g, k)), s.g); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := 4 * rounds
	got1 := collectPayloads(t, alice, want)
	got2 := collectPayloads(t, bob, want)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("global delivery order diverged at %d: alice %q, bob %q\nalice: %v\nbob:   %v",
				i, got1[i], got2[i], got1, got2)
		}
	}
}

// TestShardedMigrateUnderLoad drives Daemon.Migrate while senders keep
// publishing into the migrating group: the handoff must lose nothing,
// duplicate nothing, preserve one identical delivery order on every
// daemon, and leave every daemon agreeing on the group's new ring.
func TestShardedMigrateUnderLoad(t *testing.T) {
	daemons := startShardedDaemons(t, 2, 2)
	g := "g-0" // ring 1 home by the pinned hash
	home := group.RingOf(g, 2)
	target := (home + 1) % 2

	alice := dial(t, daemons[0], "alice")
	bob := dial(t, daemons[1], "bob")
	if err := alice.Join(g); err != nil {
		t.Fatal(err)
	}
	nextView(t, alice, g, 5*time.Second)
	if err := bob.Join(g); err != nil {
		t.Fatal(err)
	}
	nextView(t, bob, g, 5*time.Second)
	nextView(t, alice, g, 5*time.Second)

	total := 0
	send := func(c *client.Client, phase string, n int) {
		for k := 0; k < n; k++ {
			if err := c.Multicast(evs.Agreed, []byte(fmt.Sprintf("%s-%d-%d", phase, total, k)), g); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	send(alice, "pre", 5)
	send(bob, "pre", 5)

	// Keep traffic flowing from the remote daemon while the migration
	// drains, re-homes, and replays — the window the buffering protects.
	var wg sync.WaitGroup
	wg.Add(1)
	mid := 20
	go func() {
		defer wg.Done()
		for k := 0; k < mid; k++ {
			if err := bob.Multicast(evs.Agreed, []byte(fmt.Sprintf("mid-%d", k)), g); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if err := daemons[0].Migrate(g, target); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	wg.Wait()
	total += mid
	send(alice, "post", 4)

	got1 := collectPayloads(t, alice, total)
	got2 := collectPayloads(t, bob, total)
	seen := make(map[string]bool, total)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery order diverged at %d through migration: alice %q, bob %q", i, got1[i], got2[i])
		}
		if seen[got1[i]] {
			t.Fatalf("payload %q delivered twice through migration", got1[i])
		}
		seen[got1[i]] = true
	}
	for _, d := range daemons {
		if r := d.RingOfGroup(g); r != target {
			t.Fatalf("daemon routes %q to ring %d after migration, want %d", g, r, target)
		}
	}

	// Migrating back to the hash home clears the override and stays live.
	if err := daemons[1].Migrate(g, home); err != nil {
		t.Fatalf("Migrate back: %v", err)
	}
	for _, d := range daemons {
		if r := d.RingOfGroup(g); r != home {
			t.Fatalf("daemon routes %q to ring %d after return migration, want %d", g, r, home)
		}
	}
	if err := alice.Multicast(evs.Agreed, []byte("after-return"), g); err != nil {
		t.Fatal(err)
	}
	if got := string(nextMessage(t, bob, 10*time.Second).Payload); got != "after-return" {
		t.Fatalf("post-return delivery = %q", got)
	}
	nextMessage(t, alice, 10*time.Second) // alice's own copy
}

// TestPrivateSameRingFIFOWithMerge pins the Private ordering contract
// under sharding (the RingOfClient audit): Private frames do NOT bypass
// the merge — they ride their target's client ring and are emitted at
// globally ordered positions like everything else — so one sender's
// privates and multicasts submitted to the SAME ring reach a common
// recipient in exact submission order. (Cross-ring interleavings from one
// sender are deterministic but not FIFO; DESIGN §7 documents that caveat
// for spanning sends and privates alike.)
func TestPrivateSameRingFIFOWithMerge(t *testing.T) {
	daemons := startShardedDaemons(t, 2, 2)
	alice := dial(t, daemons[0], "alice")
	bob := dial(t, daemons[1], "bob")

	// Pick a group whose ring coincides with bob's private-delivery ring.
	pr := group.RingOfClient(bob.ID().String(), 2)
	g := ""
	for i := 0; i < 64 && g == ""; i++ {
		if cand := fmt.Sprintf("g-%d", i); group.RingOf(cand, 2) == pr {
			g = cand
		}
	}
	if g == "" {
		t.Fatal("no group hashes onto the private ring")
	}
	if err := bob.Join(g); err != nil {
		t.Fatal(err)
	}
	nextView(t, bob, g, 5*time.Second)

	const rounds = 8
	for k := 0; k < rounds; k++ {
		if err := alice.SendPrivate(bob.ID(), evs.Agreed, []byte(fmt.Sprintf("p-%d", k))); err != nil {
			t.Fatal(err)
		}
		if err := alice.Multicast(evs.Agreed, []byte(fmt.Sprintf("m-%d", k)), g); err != nil {
			t.Fatal(err)
		}
	}
	got := collectPayloads(t, bob, 2*rounds)
	for k := 0; k < rounds; k++ {
		if got[2*k] != fmt.Sprintf("p-%d", k) || got[2*k+1] != fmt.Sprintf("m-%d", k) {
			t.Fatalf("same-ring private/multicast FIFO broken at round %d: %v", k, got)
		}
	}
}

// TestSendSplitPathAllocFree extends the AllocsPerRun gates to the daemon
// Send path: the handler's SplitByRing step, run exactly as handleRequest
// runs it (through the session's split scratch), must not allocate for
// the single-ring common case — which includes every send on an
// unsharded daemon.
func TestSendSplitPathAllocFree(t *testing.T) {
	d := &Daemon{core: groupcore.New(groupcore.Config{Shards: 4})}
	c := &clientConn{}
	single := []string{"g-1"} // one ring, the fast path
	c.split = d.core.SplitByRing(single, c.split)
	if len(c.split) != 1 {
		t.Fatalf("single-ring split = %v", c.split)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.split = d.core.SplitByRing(single, c.split)
	}); n != 0 {
		t.Fatalf("single-ring Send split allocates %.2f/op, want 0", n)
	}

	// The spanning case is allowed its per-ring subset slices, but the
	// scratch itself must be reused: the returned header slice may not
	// reallocate once warm.
	span := []string{"g-0", "g-1", "g-2", "g-3"}
	c.split = d.core.SplitByRing(span, c.split)
	warm := &c.split[0]
	c.split = d.core.SplitByRing(span, c.split)
	if &c.split[0] != warm {
		t.Fatal("spanning Send split reallocated its session scratch")
	}
}
