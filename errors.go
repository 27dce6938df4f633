package accelring

import (
	"errors"
	"fmt"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/ringconf"
)

// Sentinel errors returned by the public API. Branch with errors.Is.
var (
	// ErrClosed is returned by every method after Close (or after the
	// node failed terminally; Err explains why).
	ErrClosed = errors.New("accelring: node closed")
	// ErrNotReady is returned by Join/Leave/Send before the first ring
	// has formed. Wait with WaitReady or for the first ViewChange event.
	ErrNotReady = errors.New("accelring: ring not formed yet")
	// ErrSlowConsumer terminates a node whose application stopped
	// draining Events; a blocked consumer must not stall the ordering
	// protocol (the same policy Spread applies to slow clients).
	ErrSlowConsumer = errors.New("accelring: event consumer too slow")
	// ErrNotMember is returned by Leave for a group the node never
	// joined, and by operations requiring membership.
	ErrNotMember = group.ErrNotMember
	// ErrBadGroup rejects an invalid group name (empty or too long).
	ErrBadGroup = group.ErrBadGroup
	// ErrInvalidService rejects an undefined delivery service level.
	ErrInvalidService = errors.New("accelring: invalid service level")
	// ErrBadGroupCount rejects a Send with zero or too many groups.
	ErrBadGroupCount = fmt.Errorf("accelring: need 1..%d groups", group.MaxGroups)

	// Validation errors returned by Config.Validate (wrapped with
	// context).
	ErrNoSelf        = ringconf.ErrNoSelf
	ErrNoTransport   = ringconf.ErrNoTransport
	ErrBadWindow     = ringconf.ErrBadWindow
	ErrBadTimeout    = ringconf.ErrBadTimeout
	ErrBadAddress    = ringconf.ErrBadAddress
	ErrBadProtocol   = ringconf.ErrBadProtocol
	ErrBadBufferSize = ringconf.ErrBadBufferSize
	ErrBadShards     = ringconf.ErrBadShards
	ErrWireConflict  = ringconf.ErrWireConflict // mutually exclusive WireConfig fields
	ErrShardPorts    = ringconf.ErrShardPorts   // derived per-ring ports collide or overflow
	ErrBadWire       = ringconf.ErrBadWire      // invalid wire knob
)

// MembershipChangedError reports an operation that could not complete in
// the view it was issued in; it is the decoded form of the session
// protocol's CodeMembershipChanged error. Node's Join/Leave/Send never
// return it: a ring re-forming after a partition, merge, or crash queues
// them and orders them once it has formed again.
type MembershipChangedError = evs.MembershipChangedError
