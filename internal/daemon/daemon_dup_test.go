package daemon

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/transport"
)

// TestDuplicateFramesThroughDaemons runs a daemon cluster on a hub whose
// injector duplicates every frame — tokens and data alike, with the
// copies spread in time so they also reorder. Clients must still see each
// message exactly once, in one total order, and the engines must account
// for the discarded duplicates.
func TestDuplicateFramesThroughDaemons(t *testing.T) {
	hub := transport.NewHub()
	var plan faults.Plan
	plan.Add(faults.Rule{
		Name:  "dup-everything",
		Model: faults.Duplicate{P: 1, Copies: 1, Spread: 2 * time.Millisecond},
	})
	inj := faults.New(7, plan)
	hub.SetInjector(inj)

	daemons := startDaemonsOnHub(t, 3, hub)
	var clients []*client.Client
	for i, d := range daemons {
		c := dial(t, d, fmt.Sprintf("c%d", i))
		if err := c.Join("dup-room"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		for {
			v := nextView(t, c, "dup-room", 5*time.Second)
			if len(v.Members) == len(clients) {
				break
			}
		}
	}

	const perClient = 8
	for i, c := range clients {
		for k := 0; k < perClient; k++ {
			if err := c.Multicast(evs.Agreed, []byte(fmt.Sprintf("%d-%d", i, k)), "dup-room"); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := perClient * len(clients)
	var ref []string
	for i, c := range clients {
		got := make([]string, 0, total)
		seen := make(map[string]bool)
		for len(got) < total {
			m := nextMessage(t, c, 10*time.Second)
			p := string(m.Payload)
			if seen[p] {
				t.Fatalf("client %d received %q twice", i, p)
			}
			seen[p] = true
			got = append(got, p)
		}
		if i == 0 {
			ref = got
			continue
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("client %d order differs at %d: %q vs %q", i, k, got[k], ref[k])
			}
		}
	}

	var duplicated uint64
	for _, c := range inj.Counters() {
		duplicated += c.Duplicated
	}
	if duplicated == 0 {
		t.Fatal("injector duplicated nothing; test is vacuous")
	}
	// The copies trail their originals by up to Spread, so the last
	// messages can reach every client before an engine has discarded a
	// duplicate: read the counters until both move or the deadline
	// passes.
	var tokDropped, dataDropped uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tokDropped, dataDropped = 0, 0
		for _, d := range daemons {
			st := d.RingNode(0).Status()
			tokDropped += st.Engine.TokensDropped
			dataDropped += st.Engine.DataDropped
		}
		if tokDropped > 0 && dataDropped > 0 || time.Now().After(deadline) {
			break
		}
	}
	if tokDropped == 0 {
		t.Error("no duplicate tokens were discarded by the engines")
	}
	if dataDropped == 0 {
		t.Error("no duplicate data frames were discarded by the engines")
	}
}
