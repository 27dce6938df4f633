package main

import "fmt"

// The delivery contract the benchmark holds the system to on every pass:
// every subscriber sees the same sequence of messages (one global order,
// across rings too), each sender's messages to a group arrive in the
// order sent, nothing arrives twice, and everything sent arrives.

// violation is one broken rule. kind is one of "diverged", "fifo",
// "duplicate", "missing" and "unknown".
type violation struct {
	kind   string
	detail string
}

func (v violation) String() string { return v.kind + ": " + v.detail }

// maxViolationsPerKind bounds the report: one broken run can break a rule
// a million times.
const maxViolationsPerKind = 4

type violations struct {
	list  []violation
	count map[string]int
}

func (vs *violations) add(kind, format string, args ...any) {
	if vs.count == nil {
		vs.count = make(map[string]int)
	}
	vs.count[kind]++
	if vs.count[kind] <= maxViolationsPerKind {
		vs.list = append(vs.list, violation{kind: kind, detail: fmt.Sprintf(format, args...)})
	}
}

func keyString(k uint64) string {
	return fmt.Sprintf("(sender %d, group %d, id %d)", keySender(k), keyGroup(k), keyID(k))
}

// checkOrder checks the subscribers' delivery logs (message keys in
// delivery order) against what was sent: sent[s][id] says whether sender
// s's message id went out without error. It returns every rule broken,
// at most maxViolationsPerKind per kind.
func checkOrder(logs [][]uint64, sent [][]bool) []violation {
	var vs violations

	for sub, log := range logs {
		seen := make([][]bool, len(sent))
		for s := range sent {
			seen[s] = make([]bool, len(sent[s]))
		}
		last := make(map[uint64]uint64) // (sender, group) -> last id + 1
		for pos, k := range log {
			s, id := keySender(k), keyID(k)
			if s >= len(sent) || id >= uint64(len(sent[s])) || !sent[s][id] {
				vs.add("unknown", "subscriber %d position %d: %s was never sent", sub, pos, keyString(k))
				continue
			}
			if seen[s][id] {
				vs.add("duplicate", "subscriber %d position %d: %s delivered again", sub, pos, keyString(k))
				continue
			}
			seen[s][id] = true
			stream := k &^ (1<<48 - 1)
			if next := last[stream]; id+1 <= next {
				vs.add("fifo", "subscriber %d position %d: %s delivered after id %d of the same sender and group", sub, pos, keyString(k), next-1)
			} else {
				last[stream] = id + 1
			}
		}
		for s := range sent {
			for id, ok := range sent[s] {
				if ok && !seen[s][id] {
					vs.add("missing", "subscriber %d never received (sender %d, id %d)", sub, s, id)
				}
			}
		}
	}

	for sub := 1; sub < len(logs); sub++ {
		a, b := logs[0], logs[sub]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		diverged := false
		for pos := 0; pos < n; pos++ {
			if a[pos] != b[pos] {
				vs.add("diverged", "position %d: subscriber 0 has %s, subscriber %d has %s", pos, keyString(a[pos]), sub, keyString(b[pos]))
				diverged = true
				break
			}
		}
		if !diverged && len(a) != len(b) {
			vs.add("diverged", "subscriber 0 has %d deliveries, subscriber %d has %d", len(a), sub, len(b))
		}
	}
	return vs.list
}
