package main

import (
	"strings"
	"testing"
)

// cleanLogs forges a correct run: two senders, ten messages each on one
// group, interleaved the same way at both subscribers.
func cleanLogs() (logs [][]uint64, sent [][]bool) {
	var order []uint64
	for id := uint64(0); id < 10; id++ {
		order = append(order, msgKey(0, 0, id), msgKey(1, 0, id))
	}
	logs = [][]uint64{append([]uint64(nil), order...), append([]uint64(nil), order...)}
	sent = [][]bool{make([]bool, 10), make([]bool, 10)}
	for s := range sent {
		for id := range sent[s] {
			sent[s][id] = true
		}
	}
	return logs, sent
}

func TestCheckOrder(t *testing.T) {
	cases := []struct {
		name  string
		forge func(logs [][]uint64) [][]uint64
		want  []string // violation kinds that must be reported; none means a clean pass
	}{
		{"clean", func(l [][]uint64) [][]uint64 { return l }, nil},
		{"swapped pair at one subscriber", func(l [][]uint64) [][]uint64 {
			l[1][4], l[1][5] = l[1][5], l[1][4] // different senders: order differs, FIFO holds
			return l
		}, []string{"diverged"}},
		{"duplicate at both subscribers", func(l [][]uint64) [][]uint64 {
			for s := range l {
				l[s] = append(l[s][:7], append([]uint64{l[s][6]}, l[s][7:]...)...)
			}
			return l
		}, []string{"duplicate"}},
		{"missing message at both subscribers", func(l [][]uint64) [][]uint64 {
			for s := range l {
				l[s] = append(l[s][:8], l[s][9:]...)
			}
			return l
		}, []string{"missing"}},
		{"per-sender FIFO break at both subscribers", func(l [][]uint64) [][]uint64 {
			for s := range l {
				l[s][2], l[s][4] = l[s][4], l[s][2] // sender 0's ids 1 and 2 trade places
			}
			return l
		}, []string{"fifo"}},
		{"subscribers diverge", func(l [][]uint64) [][]uint64 {
			l[1] = l[1][:15] // the second subscriber stopped hearing
			return l
		}, []string{"diverged", "missing"}},
		{"message nobody sent", func(l [][]uint64) [][]uint64 {
			for s := range l {
				l[s] = append(l[s], msgKey(1, 0, 99))
			}
			return l
		}, []string{"unknown"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logs, sent := cleanLogs()
			got := checkOrder(tc.forge(logs), sent)
			kinds := make(map[string]bool)
			for _, v := range got {
				kinds[v.kind] = true
			}
			for _, k := range tc.want {
				if !kinds[k] {
					t.Errorf("no %q violation reported; got %v", k, got)
				}
				delete(kinds, k)
			}
			if len(kinds) > 0 {
				t.Errorf("unexpected violations: %v", got)
			}
		})
	}
}

func TestCheckOrderFIFOIsPerGroup(t *testing.T) {
	// One sender, two groups on different rings: the merge may interleave
	// the groups either way, but each group's ids must still ascend.
	log := []uint64{msgKey(0, 1, 1), msgKey(0, 0, 0), msgKey(0, 0, 2), msgKey(0, 1, 3)}
	sent := [][]bool{{true, true, true, true}}
	if got := checkOrder([][]uint64{log, log}, sent); len(got) != 0 {
		t.Fatalf("cross-group interleaving reported: %v", got)
	}
}

func TestCheckOrderBoundsReport(t *testing.T) {
	logs, sent := cleanLogs()
	logs[0], logs[1] = nil, nil // everything missing, at both subscribers
	got := checkOrder(logs, sent)
	if len(got) != maxViolationsPerKind {
		t.Fatalf("got %d violations, want the cap of %d", len(got), maxViolationsPerKind)
	}
	if !strings.Contains(got[0].String(), "never received") {
		t.Fatalf("unexpected report %q", got[0])
	}
}
