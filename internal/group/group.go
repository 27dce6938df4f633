// Package group implements the Spread-like group-messaging layer on top of
// the totally ordered ring: named groups with open-group semantics (a
// client need not join a group to send to it), multi-group multicast (one
// message to the members of several groups, ordered consistently across
// groups), and agreed group views. Group joins and leaves travel as
// ordered messages themselves, so every daemon applies them at the same
// point in the total order and group views are identical everywhere.
package group

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"accelring/internal/evs"
)

// MaxGroupName bounds group name length, as Spread bounds its descriptive
// group names.
const MaxGroupName = 32

// MaxGroups bounds the groups of one multi-group multicast.
const MaxGroups = 16

// ClientID identifies a client globally: the daemon it is attached to and
// a daemon-local identifier.
type ClientID struct {
	Daemon evs.ProcID
	Local  uint32
}

func (c ClientID) String() string { return fmt.Sprintf("%d#%d", c.Daemon, c.Local) }

// compare orders clients for deterministic view listings.
func (c ClientID) compare(o ClientID) int {
	if c.Daemon != o.Daemon {
		return cmp.Compare(c.Daemon, o.Daemon)
	}
	return cmp.Compare(c.Local, o.Local)
}

// SortClients sorts ids and drops duplicates in place, returning the
// shortened slice: the union step of a multi-group delivery set.
func SortClients(ids []ClientID) []ClientID {
	slices.SortFunc(ids, ClientID.compare)
	return slices.Compact(ids)
}

// ValidGroupName reports whether a group name is usable.
func ValidGroupName(g string) bool {
	return len(g) > 0 && len(g) <= MaxGroupName
}

// Table is each daemon's replica of the data center's group membership.
// It must only be mutated by applying totally ordered operations, so every
// daemon's table stays identical.
type Table struct {
	// groups maps group name -> member set.
	groups map[string]map[ClientID]struct{}
	// byClient maps client -> joined group names.
	byClient map[ClientID]map[string]struct{}
	// sorted caches each group's sorted member list, built on first use
	// and dropped by any membership change of that group, so a stream of
	// messages to a steady group sorts nothing.
	sorted map[string][]ClientID
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		groups:   make(map[string]map[ClientID]struct{}),
		byClient: make(map[ClientID]map[string]struct{}),
		sorted:   make(map[string][]ClientID),
	}
}

// Errors returned by Table operations.
var (
	ErrBadGroup  = errors.New("group: invalid group name")
	ErrNotMember = errors.New("group: client is not a member")
)

// Join adds a client to a group. Joining twice is a no-op.
func (t *Table) Join(c ClientID, g string) error {
	if !ValidGroupName(g) {
		return ErrBadGroup
	}
	members := t.groups[g]
	if members == nil {
		members = make(map[ClientID]struct{})
		t.groups[g] = members
	}
	members[c] = struct{}{}
	delete(t.sorted, g)
	gs := t.byClient[c]
	if gs == nil {
		gs = make(map[string]struct{})
		t.byClient[c] = gs
	}
	gs[g] = struct{}{}
	return nil
}

// Leave removes a client from a group.
func (t *Table) Leave(c ClientID, g string) error {
	if !ValidGroupName(g) {
		return ErrBadGroup
	}
	members := t.groups[g]
	if _, ok := members[c]; !ok {
		return ErrNotMember
	}
	delete(members, c)
	delete(t.sorted, g)
	if len(members) == 0 {
		delete(t.groups, g)
	}
	if gs := t.byClient[c]; gs != nil {
		delete(gs, g)
		if len(gs) == 0 {
			delete(t.byClient, c)
		}
	}
	return nil
}

// Disconnect removes a client from every group and returns the groups it
// left, sorted.
func (t *Table) Disconnect(c ClientID) []string {
	gs := t.byClient[c]
	if len(gs) == 0 {
		delete(t.byClient, c)
		return nil
	}
	left := make([]string, 0, len(gs))
	for g := range gs {
		left = append(left, g)
		members := t.groups[g]
		delete(members, c)
		delete(t.sorted, g)
		if len(members) == 0 {
			delete(t.groups, g)
		}
	}
	delete(t.byClient, c)
	sort.Strings(left)
	return left
}

// DropDaemon disconnects every client of the given daemon (used when a
// daemon leaves the configuration) and returns the affected groups.
func (t *Table) DropDaemon(d evs.ProcID) []string {
	var clients []ClientID
	for c := range t.byClient {
		if c.Daemon == d {
			clients = append(clients, c)
		}
	}
	slices.SortFunc(clients, ClientID.compare)
	affected := make(map[string]struct{})
	for _, c := range clients {
		for _, g := range t.Disconnect(c) {
			affected[g] = struct{}{}
		}
	}
	out := make([]string, 0, len(affected))
	for g := range affected {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the group currently has any members in this table —
// a cheap existence probe the cross-ring merge layer uses to locate a
// migrated group's state without copying the member list.
func (t *Table) Has(g string) bool {
	return len(t.groups[g]) > 0
}

// Members returns the sorted membership of a group (nil if empty), as a
// fresh copy the caller owns: views escape to applications.
func (t *Table) Members(g string) []ClientID {
	return slices.Clone(t.members(g))
}

// members returns g's cached sorted member list, building it on a miss
// (nil if empty). The list is shared: read-only, and valid until the next
// mutation of the table.
func (t *Table) members(g string) []ClientID {
	if out, ok := t.sorted[g]; ok {
		return out
	}
	set := t.groups[g]
	if len(set) == 0 {
		return nil
	}
	out := make([]ClientID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	slices.SortFunc(out, ClientID.compare)
	t.sorted[g] = out
	return out
}

// GroupsOf returns the sorted groups a client has joined.
func (t *Table) GroupsOf(c ClientID) []string {
	gs := t.byClient[c]
	if len(gs) == 0 {
		return nil
	}
	out := make([]string, 0, len(gs))
	for g := range gs {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Recipients returns the deduplicated, sorted union of the members of the
// given groups — the delivery set of a multi-group multicast — or nil if
// it is empty. For one group it is the table's cached member list:
// shared, read-only, and valid only until the table's next mutation. A
// union of several groups is built fresh; a caller with scratch of its
// own appends each group's list and calls SortClients instead.
func (t *Table) Recipients(groups []string) []ClientID {
	if len(groups) == 1 {
		return t.members(groups[0])
	}
	var out []ClientID
	for _, g := range groups {
		out = append(out, t.members(g)...)
	}
	if len(out) == 0 {
		return nil
	}
	return SortClients(out)
}

// Groups returns all group names, sorted.
func (t *Table) Groups() []string {
	out := make([]string, 0, len(t.groups))
	for g := range t.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
