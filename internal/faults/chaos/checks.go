package chaos

import (
	"fmt"
	"sort"
	"strings"

	"accelring/internal/evs"
)

// checkInvariants runs the four EVS delivery invariants over the
// collected per-incarnation logs.
func checkInvariants(logs []*memberLog) []Violation {
	var out []Violation
	out = append(out, checkSeqRegression(logs)...)
	out = append(out, checkTotalOrder(logs)...)
	out = append(out, checkVirtualSynchrony(logs)...)
	out = append(out, checkSafeStability(logs)...)
	return out
}

// msgKey renders one delivery for comparison across members.
func msgKey(m evs.Message) string {
	return fmt.Sprintf("%d:%d:%s", m.Seq, m.Sender, m.Payload)
}

// deliveriesByConfig groups a log's messages by the regular configuration
// they were ordered in, preserving delivery order.
func deliveriesByConfig(log *memberLog) map[evs.ViewID][]string {
	segs := make(map[evs.ViewID][]string)
	for _, ev := range log.events {
		if m, ok := ev.(evs.Message); ok {
			segs[m.Config] = append(segs[m.Config], msgKey(m))
		}
	}
	return segs
}

// checkSeqRegression: within each configuration, a member's delivered
// sequence numbers never decrease, and the messages of one packed bundle
// (which share a seq) come at strictly increasing positions — no
// regression, no duplicate delivery.
func checkSeqRegression(logs []*memberLog) []Violation {
	var out []Violation
	type at struct {
		seq uint64
		pos int
	}
	for _, log := range logs {
		last := make(map[evs.ViewID]at)
		for i, ev := range log.events {
			m, ok := ev.(evs.Message)
			if !ok {
				continue
			}
			cur := at{m.Seq, log.posAt(i)}
			if prev, seen := last[m.Config]; seen && (cur.seq < prev.seq || cur.seq == prev.seq && cur.pos <= prev.pos) {
				out = append(out, Violation{"seq-regression", fmt.Sprintf(
					"member %s delivered seq %d.%d after %d.%d in config %v",
					log.name(), cur.seq, cur.pos, prev.seq, prev.pos, m.Config)})
			}
			last[m.Config] = cur
		}
	}
	return out
}

// checkTotalOrder: agreed delivery produces one total order. Three
// consequences are checkable from the outside without protocol internals:
// (a) a slot (config, seq, position within a packed bundle) holds the
// same message at every member that fills it — the token assigns each
// sequence number exactly once per ring;
// (b) no member delivers the same message twice within one incarnation —
// membership changes re-multicast old-ring messages under new sequence
// numbers, and survivors that already delivered them must suppress the
// duplicates; (c) any two members deliver the messages they have in
// common in the same relative order across their entire logs. Per-config
// prefix identity is deliberately NOT required: a survivor legitimately
// skips the new-ring slots of re-multicast messages it already delivered
// on the old ring, while a merging member delivers them in the new
// configuration.
func checkTotalOrder(logs []*memberLog) []Violation {
	var out []Violation
	slot := make(map[string]string)
	slotBy := make(map[string]string)
	seqs := make([][]string, len(logs))
	for i, log := range logs {
		seen := make(map[string]bool)
		for k, ev := range log.events {
			m, ok := ev.(evs.Message)
			if !ok {
				continue
			}
			id := fmt.Sprintf("%d:%s", m.Sender, m.Payload)
			sl := fmt.Sprintf("%v/%d.%d", m.Config, m.Seq, log.posAt(k))
			if prev, taken := slot[sl]; !taken {
				slot[sl] = id
				slotBy[sl] = log.name()
			} else if prev != id {
				out = append(out, Violation{"total-order", fmt.Sprintf(
					"slot %s is %q at %s but %q at %s",
					sl, prev, slotBy[sl], id, log.name())})
			}
			if seen[id] {
				out = append(out, Violation{"total-order", fmt.Sprintf(
					"member %s delivered %q twice", log.name(), id)})
				continue
			}
			seen[id] = true
			seqs[i] = append(seqs[i], id)
		}
	}
	for i := range logs {
		for j := i + 1; j < len(logs); j++ {
			pos := make(map[string]int, len(seqs[j]))
			for x, k := range seqs[j] {
				pos[k] = x
			}
			last, lastKey := -1, ""
			for _, k := range seqs[i] {
				x, both := pos[k]
				if !both {
					continue
				}
				if x < last {
					out = append(out, Violation{"total-order", fmt.Sprintf(
						"members %s and %s deliver %q and %q in opposite orders",
						logs[i].name(), logs[j].name(), lastKey, k)})
					break
				}
				last, lastKey = x, k
			}
		}
	}
	return out
}

// sortedMembers renders a configuration's member set canonically.
func sortedMembers(ms []evs.ProcID) string {
	cp := append([]evs.ProcID(nil), ms...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return fmt.Sprint(cp)
}

// transitionsOf walks a log and yields one entry per installed regular
// configuration change C -> D, keyed by the transitional configuration
// delivered between them. The transitional configuration identifies the
// set of processes that came through the change together — two members
// moving C -> D through DIFFERENT transitionals did not, and owe each
// other no common message set.
func transitionsOf(log *memberLog) []string {
	var keys []string
	var lastReg evs.ViewID
	haveReg := false
	tran := ""
	for _, ev := range log.events {
		cc, ok := ev.(evs.ConfigChange)
		if !ok {
			continue
		}
		if cc.Transitional {
			tran = fmt.Sprintf("%v%s", cc.Config.ID, sortedMembers(cc.Config.Members))
			continue
		}
		if haveReg {
			keys = append(keys, fmt.Sprintf("%v|%s|%v", lastReg, tran, cc.Config.ID))
		}
		lastReg, haveReg, tran = cc.Config.ID, true, ""
	}
	return keys
}

// checkVirtualSynchrony: members agree on every configuration's member
// set, and two members that transition between the same pair of regular
// configurations THROUGH THE SAME transitional configuration delivered
// exactly the same messages in the old one — they came through the change
// together, so their views of it must be identical, not merely
// prefix-consistent.
func checkVirtualSynchrony(logs []*memberLog) []Violation {
	var out []Violation
	memberSet := make(map[evs.ViewID]string)
	memberSetBy := make(map[evs.ViewID]string)
	full := make(map[string]string)
	fullBy := make(map[string]string)

	for _, log := range logs {
		segs := deliveriesByConfig(log)
		for _, ev := range log.events {
			cc, ok := ev.(evs.ConfigChange)
			if !ok || cc.Transitional {
				continue
			}
			cfg := cc.Config.ID
			repr := sortedMembers(cc.Config.Members)
			if prev, seen := memberSet[cfg]; !seen {
				memberSet[cfg] = repr
				memberSetBy[cfg] = log.name()
			} else if prev != repr {
				out = append(out, Violation{"virtual-synchrony", fmt.Sprintf(
					"config %v has members %s at %s but %s at %s",
					cfg, prev, memberSetBy[cfg], repr, log.name())})
			}
		}
		for _, tr := range transitionsOf(log) {
			from := tr[:strings.Index(tr, "|")]
			repr := ""
			for cfg, seg := range segs {
				if fmt.Sprint(cfg) == from {
					repr = fmt.Sprint(seg)
				}
			}
			if prev, seen := full[tr]; !seen {
				full[tr] = repr
				fullBy[tr] = log.name()
			} else if prev != repr {
				out = append(out, Violation{"virtual-synchrony", fmt.Sprintf(
					"members %s and %s came through transition %s together but delivered different messages in the old config: %s vs %s",
					fullBy[tr], log.name(), tr, prev, repr)})
			}
		}
	}
	return out
}

// checkSafeStability: a Safe message delivered in a REGULAR configuration
// (before the configuration's transitional marker) certifies that every
// member of the configuration received it — so every non-crashed member
// that installed the configuration must deliver it (in the regular part
// or the EVS tail) before the run ends.
func checkSafeStability(logs []*memberLog) []Violation {
	var out []Violation

	// safeRegular[(cfg, seq, pos)] = first member that delivered it safely
	// in the regular part.
	type key struct {
		cfg evs.ViewID
		seq uint64
		pos int
	}
	safeRegular := make(map[key]string)
	var safeOrder []key
	delivered := make([]map[key]bool, len(logs))
	installedAt := make([]map[evs.ViewID]bool, len(logs))

	for i, log := range logs {
		delivered[i] = make(map[key]bool)
		installedAt[i] = make(map[evs.ViewID]bool)
		var current evs.ViewID
		pastTransitional := make(map[evs.ViewID]bool)
		for j, ev := range log.events {
			switch e := ev.(type) {
			case evs.ConfigChange:
				if e.Transitional {
					// closes the regular part of the configuration being
					// left.
					pastTransitional[current] = true
				} else {
					current = e.Config.ID
					installedAt[i][current] = true
				}
			case evs.Message:
				k := key{e.Config, e.Seq, log.posAt(j)}
				delivered[i][k] = true
				if e.Service == evs.Safe && !pastTransitional[e.Config] {
					if _, seen := safeRegular[k]; !seen {
						safeRegular[k] = log.name()
						safeOrder = append(safeOrder, k)
					}
				}
			}
		}
	}

	for _, k := range safeOrder {
		for i, log := range logs {
			if log.crashed || !installedAt[i][k.cfg] || delivered[i][k] {
				continue
			}
			out = append(out, Violation{"safe-stability", fmt.Sprintf(
				"safe message (config %v, seq %d.%d) delivered in the regular configuration by %s but never by live member %s of that configuration",
				k.cfg, k.seq, k.pos, safeRegular[k], log.name())})
		}
	}
	return out
}
