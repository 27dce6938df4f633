package group

import (
	"hash/fnv"
	"sort"
	"sync"
)

func sortedUnique(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	var prev string
	for i, s := range ss {
		if i == 0 || s != prev {
			out = append(out, s)
			prev = s
		}
	}
	return out
}

// RingOf maps a group name to the ring that owns it in an N-ring sharded
// deployment, with a stable FNV-1a hash: every daemon computes the same
// ring for the same name, forever. The function must never change — a
// deployment that disagreed on it (even transiently, during a rolling
// upgrade) would split one group's traffic across two rings and break the
// group's total order. shards <= 1 always maps to ring 0.
func RingOf(group string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(group))
	return int(h.Sum64() % uint64(shards))
}

// RingOfClient routes client-addressed (private) traffic by the stable
// string form of an identity, spreading point-to-point load across rings
// with the same everywhere-identical guarantee as RingOf.
func RingOfClient(id string, shards int) int { return RingOf(id, shards) }

// ShardedTable partitions the replicated group-membership state of a
// sharded daemon: one Table per ring. The default placement is RingOf
// (pure hash), and live migration (PR 9) can re-home individual groups
// with a route override — overrides are installed at the migration's
// globally ordered close point, so every daemon flips a group's route at
// the same place in the merged total order. The route map has its own
// read-write lock (reads on the submit hot path, writes only at migration
// close); each per-ring Table is still mutated only by applying ordered
// operations, which since the cross-ring merger serializes all rings'
// envelope application needs no further locking. Cross-ring aggregations
// (GroupsOf, Groups) remain for callers that serialize all access
// themselves, like the library facade's single mutex.
type ShardedTable struct {
	tables []*Table

	mu     sync.RWMutex
	routes map[string]int // migration overrides: group -> owning ring
}

// NewShardedTable returns shards empty per-ring tables (shards >= 1).
func NewShardedTable(shards int) *ShardedTable {
	if shards < 1 {
		shards = 1
	}
	s := &ShardedTable{tables: make([]*Table, shards)}
	for i := range s.tables {
		s.tables[i] = NewTable()
	}
	return s
}

// Shards returns the ring count.
func (s *ShardedTable) Shards() int { return len(s.tables) }

// Ring returns the ring owning a group name: a migration override when
// one is installed, the stable RingOf hash otherwise.
func (s *ShardedTable) Ring(group string) int {
	if len(s.tables) <= 1 {
		return 0
	}
	s.mu.RLock()
	r, ok := s.routes[group]
	s.mu.RUnlock()
	if ok {
		return r
	}
	return RingOf(group, len(s.tables))
}

// SetRoute installs a route override for a group without touching member
// state. The migration protocol calls it when a MigrateBegin is applied,
// so new submissions head for the target ring (where they are buffered
// until the ordered close point) while the source ring drains.
func (s *ShardedTable) SetRoute(group string, ring int) {
	s.mu.Lock()
	if s.routes == nil {
		s.routes = make(map[string]int)
	}
	s.routes[group] = ring
	s.mu.Unlock()
}

// Rehome moves a group's membership state and route from ring `from` to
// ring `to`. It must be called at the migration's ordered close point on
// every daemon (the cross-ring merger guarantees that point is the same
// everywhere), so replicated tables stay identical. Rehoming to the
// group's hash-home ring clears the override instead of storing one.
func (s *ShardedTable) Rehome(group string, from, to int) {
	if from == to {
		return
	}
	src, dst := s.tables[from], s.tables[to]
	for _, c := range src.Members(group) {
		_ = src.Leave(c, group)
		_ = dst.Join(c, group)
	}
	s.mu.Lock()
	if to == RingOf(group, len(s.tables)) {
		delete(s.routes, group)
	} else {
		if s.routes == nil {
			s.routes = make(map[string]int)
		}
		s.routes[group] = to
	}
	s.mu.Unlock()
}

// Table returns ring r's table.
func (s *ShardedTable) Table(r int) *Table { return s.tables[r] }

// For returns the table owning a group name.
func (s *ShardedTable) For(group string) *Table { return s.tables[s.Ring(group)] }

// GroupsOf aggregates a client's joined groups across every ring, sorted.
func (s *ShardedTable) GroupsOf(c ClientID) []string {
	var out []string
	for _, t := range s.tables {
		out = append(out, t.GroupsOf(c)...)
	}
	return sortedUnique(out)
}

// Groups aggregates all group names across every ring, sorted.
func (s *ShardedTable) Groups() []string {
	var out []string
	for _, t := range s.tables {
		out = append(out, t.Groups()...)
	}
	return sortedUnique(out)
}

// RingGroups is one ring's share of a split multi-group destination list.
type RingGroups struct {
	Ring   int
	Groups []string
}

// SplitByRing partitions a multi-group destination list by owning ring,
// in ascending ring order — deterministic, unlike the map iteration it
// replaces, so two identical runs submit a spanning send's per-ring
// copies in the same order and chaos replays reproduce byte-identical
// delivery logs. The result reuses dst's backing array when it has
// capacity, and the common case — every destination group on one ring,
// always true for shards <= 1 — aliases the caller's groups slice without
// allocating. A spanning send still becomes one independent ordered
// message per ring; the cross-ring merger is what reunifies the rings'
// streams into one global delivery order.
func (s *ShardedTable) SplitByRing(groups []string, dst []RingGroups) []RingGroups {
	dst = dst[:0]
	if len(groups) == 0 {
		return dst
	}
	var ringBuf [MaxGroups]int
	rings := ringBuf[:0]
	if len(groups) > MaxGroups {
		rings = make([]int, 0, len(groups))
	}
	first := s.Ring(groups[0])
	mixed := false
	for _, g := range groups {
		r := s.Ring(g)
		rings = append(rings, r)
		if r != first {
			mixed = true
		}
	}
	if !mixed {
		return append(dst, RingGroups{Ring: first, Groups: groups})
	}
	for r := 0; r < len(s.tables); r++ {
		var sub []string
		for i, g := range groups {
			if rings[i] == r {
				sub = append(sub, g)
			}
		}
		if sub != nil {
			dst = append(dst, RingGroups{Ring: r, Groups: sub})
		}
	}
	return dst
}
