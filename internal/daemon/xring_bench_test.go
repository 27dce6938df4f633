package daemon

// The cross-ring figure: end-to-end client delivery through real daemons
// on in-process hub transports, comparing
//
//   - XRingSplitDelivery  — the PR 4 shape: one ring, no merger; per-ring
//     delivery cost before cross-ring merge existed.
//   - XRingMergedDelivery — two rings with the cross-ring merger in the
//     delivery path, the subscriber spanning a group on each ring; the
//     per-message delta over the split path is the merge overhead.
//   - XRingMigrationBlackout — one Daemon.Migrate round trip per op with
//     traffic in flight: ns/op IS the blackout window (Begin submitted →
//     globally ordered close emitted locally).
//
// Every benchmark runs the production skip claims (a merge blocked on an
// idle ring claims merge.DefaultSkipAhead slots past its head there at
// once), so the merged figures include the idle-ring wait a deployment
// pays: one ordering of the claim on the idle ring. A developer tool
// (EXPERIMENTS.md has the command lines); the tracked figures are the
// end-to-end benchmark's sharded row and merge.* per-layer rows.

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/group"
)

// drainCount consumes the client's event stream, signalling done when
// `want` messages have arrived.
func drainCount(c *client.Client, want int, done chan<- struct{}) {
	count := 0
	for ev := range c.Events() {
		if _, ok := ev.(*client.Message); ok {
			if count++; count == want {
				close(done)
				return
			}
		}
	}
}

// benchDelivery pipelines b.N multicasts from a publisher on daemon 0 to
// a subscriber on daemon 1 and measures until the subscriber has every
// message. With shards > 1 the subscriber's groups span the rings, so
// every delivery flows through the cross-ring merger.
func benchDelivery(b *testing.B, shards int) {
	daemons := startShardedDaemons(b, 2, shards)
	pub := dial(b, daemons[0], "pub")
	sub := dial(b, daemons[1], "sub")
	groups := []string{"g-0"}
	if shards > 1 {
		groups = []string{"g-0", "g-1"} // rings 1 and 0 by the pinned hash
		if group.RingOf(groups[0], shards) == group.RingOf(groups[1], shards) {
			b.Fatal("bench groups collapsed onto one ring")
		}
	}
	for _, g := range groups {
		if err := sub.Join(g); err != nil {
			b.Fatal(err)
		}
		nextView(b, sub, g, 5*time.Second)
	}
	payload := make([]byte, 128)
	done := make(chan struct{})
	go drainCount(sub, b.N, done)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Multicast(evs.Agreed, payload, groups[i%len(groups)]); err != nil {
			b.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		b.Fatal("subscriber did not receive the full stream")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkXRingSplitDelivery(b *testing.B)  { benchDelivery(b, 1) }
func BenchmarkXRingMergedDelivery(b *testing.B) { benchDelivery(b, 2) }

// BenchmarkXRingMigrationBlackout ping-pongs one live group between the
// two rings of a 2-shard daemon pair, a burst of in-flight traffic riding
// each handoff. Each op is one full Migrate: drain the source ring, emit
// the ordered close, re-home the membership state, replay the buffered
// target-ring traffic. ns/op is the migration blackout window.
func BenchmarkXRingMigrationBlackout(b *testing.B) {
	daemons := startShardedDaemons(b, 2, 2)
	g := "g-0"
	alice := dial(b, daemons[0], "alice")
	bob := dial(b, daemons[1], "bob")
	if err := alice.Join(g); err != nil {
		b.Fatal(err)
	}
	nextView(b, alice, g, 5*time.Second)
	if err := bob.Join(g); err != nil {
		b.Fatal(err)
	}
	nextView(b, bob, g, 5*time.Second)
	nextView(b, alice, g, 5*time.Second)
	// Members drain their own deliveries in the background; the bench
	// thread only migrates.
	go func() {
		for range alice.Events() {
		}
	}()
	go func() {
		for range bob.Events() {
		}
	}()
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ { // traffic in flight across the handoff
			if err := bob.Multicast(evs.Agreed, payload, g); err != nil {
				b.Fatal(err)
			}
		}
		target := 1 - daemons[0].RingOfGroup(g)
		if err := daemons[0].Migrate(g, target); err != nil {
			b.Fatal(fmt.Errorf("migration %d: %w", i, err))
		}
	}
}
