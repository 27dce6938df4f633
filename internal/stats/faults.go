package stats

import (
	"fmt"
	"strings"
)

// FaultCounter reports the activity of one fault-injection rule: how many
// packets it inspected and how many it dropped, duplicated, or delayed.
// internal/faults produces these; the chaos harness renders them with
// FormatFaults.
type FaultCounter struct {
	// Rule is the rule's name (or its index when unnamed).
	Rule string
	// Matched counts packets the rule's match clauses selected.
	Matched uint64
	// Dropped counts packets the rule discarded.
	Dropped uint64
	// Duplicated counts extra copies the rule created.
	Duplicated uint64
	// Delayed counts packets the rule deferred.
	Delayed uint64
}

// FormatFaults renders fault-rule counters as an aligned text table, one
// rule per line. It returns an empty string for an empty slice.
func FormatFaults(rows []FaultCounter) string {
	if len(rows) == 0 {
		return ""
	}
	nameW := len("rule")
	for _, r := range rows {
		if len(r.Rule) > nameW {
			nameW = len(r.Rule)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %10s %10s %10s %10s\n", nameW, "rule",
		"matched", "dropped", "duplicated", "delayed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %10d %10d %10d %10d\n", nameW, r.Rule,
			r.Matched, r.Dropped, r.Duplicated, r.Delayed)
	}
	return b.String()
}
