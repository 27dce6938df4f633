package group

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"accelring/internal/evs"
)

// refRecipients is the uncached delivery set: the union of the groups'
// member sets, deduplicated through a map and sorted. The cached
// Recipients must always agree with it.
func refRecipients(t *Table, groups []string) []ClientID {
	set := make(map[ClientID]struct{})
	for _, g := range groups {
		for c := range t.groups[g] {
			set[c] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]ClientID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].compare(out[j]) < 0 })
	return out
}

// TestRecipientsCacheMatchesReference: over seeded random sequences of
// joins, leaves, disconnects and daemon drops, Recipients of every one-,
// two- and three-group list agrees with the uncached union after every
// operation, and a Members copy scribbled on leaves the cache intact.
func TestRecipientsCacheMatchesReference(t *testing.T) {
	groups := []string{"a", "b", "c", "d"}
	var lists [][]string
	for i, g := range groups {
		lists = append(lists, []string{g})
		for _, h := range groups[i+1:] {
			lists = append(lists, []string{g, h}, []string{h, g})
		}
	}
	lists = append(lists, []string{"a", "c", "d"}, []string{"unknown"}, []string{"b", "unknown"})
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		for op := 0; op < 300; op++ {
			c := ClientID{Daemon: evs.ProcID(1 + rng.Intn(3)), Local: uint32(1 + rng.Intn(4))}
			g := groups[rng.Intn(len(groups))]
			var what string
			switch k := rng.Intn(10); {
			case k < 5:
				what = fmt.Sprintf("join %v %s", c, g)
				_ = tbl.Join(c, g)
			case k < 8:
				what = fmt.Sprintf("leave %v %s", c, g)
				_ = tbl.Leave(c, g)
			case k < 9:
				what = fmt.Sprintf("disconnect %v", c)
				tbl.Disconnect(c)
			default:
				what = fmt.Sprintf("drop daemon %d", c.Daemon)
				tbl.DropDaemon(c.Daemon)
			}
			for _, l := range lists {
				got, want := tbl.Recipients(l), refRecipients(tbl, l)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d op %d (%s): Recipients(%v) = %v, want %v", seed, op, what, l, got, want)
				}
			}
			if m := tbl.Members(g); len(m) > 0 {
				m[0] = ClientID{Daemon: 99, Local: 99}
				if got := tbl.Recipients([]string{g}); !slices.Equal(got, refRecipients(tbl, []string{g})) {
					t.Fatalf("seed %d op %d: a caller's Members copy aliases the cache: %v", seed, op, got)
				}
			}
		}
	}
}

// TestRecipientsSingleGroupAllocFree: a stream of messages to a steady
// group resolves its delivery set without allocating.
func TestRecipientsSingleGroupAllocFree(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 16; i++ {
		if err := tbl.Join(ClientID{Daemon: evs.ProcID(1 + i%3), Local: uint32(i)}, "g"); err != nil {
			t.Fatal(err)
		}
	}
	groups := []string{"g"}
	if n := testing.AllocsPerRun(1000, func() {
		if len(tbl.Recipients(groups)) != 16 {
			t.Fatal("wrong delivery set")
		}
	}); n != 0 {
		t.Fatalf("single-group Recipients allocates %.1f times per call, want 0", n)
	}
}
