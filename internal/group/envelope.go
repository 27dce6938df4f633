package group

import (
	"encoding/binary"
	"fmt"

	"accelring/internal/evs"
)

// OpKind is the kind of a daemon-level operation carried on the ring.
type OpKind uint8

const (
	// OpJoin adds the sender to Groups[0].
	OpJoin OpKind = iota + 1
	// OpLeave removes the sender from Groups[0].
	OpLeave
	// OpDisconnect removes the sender from every group.
	OpDisconnect
	// OpMessage delivers Payload to the members of all Groups.
	OpMessage
	// OpPrivate delivers Payload to exactly one client (Target), still in
	// the ring's total order relative to everything else — Spread's
	// private messages.
	OpPrivate
	// OpPrivateReject reports, in order, that a Private's target was
	// already gone at its host daemon: Sender is the vanished target,
	// Target the original sender to notify.
	OpPrivateReject
	// OpSkip claims delivery slots for an otherwise idle ring so the
	// cross-ring merge never stalls on it (Multi-Ring Paxos lambda
	// pacing). Arg is the cumulative slot frontier being claimed; claims
	// are monotone (max-merged), so duplicate or stale skips are
	// harmless. Emitted by any member of the ring whose own merge the
	// ring is blocking.
	OpSkip
	// OpMigrateBegin starts a live migration of Groups[0] from the ring
	// this envelope is ordered on to ring Arg. Sender.Daemon is the
	// initiating daemon.
	OpMigrateBegin
	// OpFrontier is a member's slot-frontier announcement, submitted at
	// each regular configuration change and anchored to it: Arg is the
	// announcer's virtual frontier immediately after slotting the change.
	// Receivers apply it RELATIVE to that common stream position —
	// front = max(front, Arg + slots consumed since the change) — which
	// re-levels frontiers that diverged during a partition exactly, even
	// when traffic is ordered concurrently with the announcement (an
	// absolute claim would under-level by however many slots landed
	// before it was ordered, leaving a permanent skew). Consumes no slot.
	OpFrontier
	// OpMigrateAck is a member daemon's drain acknowledgement for the
	// in-flight migration of Groups[0]; Target echoes the identity of
	// the MigrateBegin it answers (which is what ties the ack to one
	// migration instance, even across members whose migration histories
	// diverged during a partition), Arg the acker's local migration
	// epoch, and Sender.Daemon the acking daemon. Because each daemon
	// submits FIFO to a ring, the ack orders after all of that daemon's
	// pre-switch traffic for the group.
	OpMigrateAck
)

// hasArg reports whether the kind carries the 8-byte Arg field on the
// wire. Existing kinds keep their PR 4 encoding byte-for-byte.
func (k OpKind) hasArg() bool {
	return k == OpSkip || k == OpFrontier || k == OpMigrateBegin || k == OpMigrateAck
}

func (k OpKind) String() string {
	switch k {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpDisconnect:
		return "disconnect"
	case OpMessage:
		return "message"
	case OpPrivate:
		return "private"
	case OpPrivateReject:
		return "private_reject"
	case OpSkip:
		return "skip"
	case OpFrontier:
		return "frontier"
	case OpMigrateBegin:
		return "migrate_begin"
	case OpMigrateAck:
		return "migrate_ack"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Envelope is the daemon-level message multicast on the ring. Because
// envelopes ride the totally ordered stream, every daemon applies joins,
// leaves, and deliveries in exactly the same order — that is what makes
// group views agreed and multi-group multicast consistent across groups.
type Envelope struct {
	Kind   OpKind
	Sender ClientID
	// Target is the destination client of a Private message.
	Target ClientID
	// Groups are the target groups (one for Join/Leave, up to MaxGroups
	// for Message).
	Groups []string
	// Payload is the application data of a Message or Private.
	Payload []byte
	// Arg carries the small integer operand of the merge-control kinds:
	// the cumulative slot frontier of a Skip, the CC-anchored frontier of
	// a Frontier announcement, the target ring of a MigrateBegin, or the
	// migration epoch of a MigrateAck. Zero (and absent on the wire) for
	// every other kind.
	Arg uint64
}

// Validate checks structural constraints before encoding.
func (e *Envelope) Validate() error {
	switch e.Kind {
	case OpJoin, OpLeave:
		if len(e.Groups) != 1 {
			return fmt.Errorf("group: %v needs exactly one group", e.Kind)
		}
	case OpMessage:
		if len(e.Groups) == 0 || len(e.Groups) > MaxGroups {
			return fmt.Errorf("group: message needs 1..%d groups", MaxGroups)
		}
	case OpDisconnect:
		if len(e.Groups) != 0 {
			return fmt.Errorf("group: disconnect carries no groups")
		}
	case OpPrivate, OpPrivateReject:
		if len(e.Groups) != 0 {
			return fmt.Errorf("group: private message carries no groups")
		}
		if e.Target == (ClientID{}) {
			return fmt.Errorf("group: private message needs a target")
		}
	case OpSkip, OpFrontier:
		if len(e.Groups) != 0 || len(e.Payload) != 0 {
			return fmt.Errorf("group: %v carries no groups or payload", e.Kind)
		}
		if e.Arg == 0 {
			return fmt.Errorf("group: %v needs a nonzero slot frontier", e.Kind)
		}
	case OpMigrateBegin, OpMigrateAck:
		if len(e.Groups) != 1 {
			return fmt.Errorf("group: %v needs exactly one group", e.Kind)
		}
		if len(e.Payload) != 0 {
			return fmt.Errorf("group: %v carries no payload", e.Kind)
		}
		if e.Kind == OpMigrateAck && e.Arg == 0 {
			return fmt.Errorf("group: migrate_ack needs a nonzero epoch")
		}
	default:
		return fmt.Errorf("group: unknown op %d", e.Kind)
	}
	if !e.Kind.hasArg() && e.Arg != 0 {
		return fmt.Errorf("group: %v carries no arg", e.Kind)
	}
	for _, g := range e.Groups {
		if !ValidGroupName(g) {
			return fmt.Errorf("group: invalid group name %q", g)
		}
	}
	return nil
}

// Encode serializes the envelope into a new buffer.
func (e *Envelope) Encode() ([]byte, error) {
	return e.AppendEncode(make([]byte, 0, e.EncodedLen()))
}

// EncodedLen returns the size of the envelope's encoding.
func (e *Envelope) EncodedLen() int {
	n := 1 + 8 + 8 + 1 + 4 + len(e.Payload)
	if e.Kind.hasArg() {
		n += 8
	}
	for _, g := range e.Groups {
		n += 1 + len(g)
	}
	return n
}

// AppendEncode appends the serialized envelope to b and returns the
// result; an invalid envelope leaves b as it was.
func (e *Envelope) AppendEncode(b []byte) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return b, err
	}
	b = append(b, byte(e.Kind))
	b = binary.BigEndian.AppendUint32(b, uint32(e.Sender.Daemon))
	b = binary.BigEndian.AppendUint32(b, e.Sender.Local)
	b = binary.BigEndian.AppendUint32(b, uint32(e.Target.Daemon))
	b = binary.BigEndian.AppendUint32(b, e.Target.Local)
	if e.Kind.hasArg() {
		b = binary.BigEndian.AppendUint64(b, e.Arg)
	}
	b = append(b, byte(len(e.Groups)))
	for _, g := range e.Groups {
		b = append(b, byte(len(g)))
		b = append(b, g...)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.Payload)))
	b = append(b, e.Payload...)
	return b, nil
}

// DecodeEnvelope parses an encoded envelope into a fresh Envelope whose
// group names are copies (see Envelope.Decode).
func DecodeEnvelope(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := e.Decode(b, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// maxNames bounds a Names set: past it, new names are copied per decode
// again, so a stream naming ever more groups cannot grow the set forever.
const maxNames = 1024

// Names interns the group names one decoding goroutine sees. A stream
// names the same few groups over and over, so after its first sighting a
// name decodes without a copy, and a one-group list without an allocation.
// The zero value is ready to use; a Names is not safe for concurrent use.
type Names struct {
	// lists maps a name to its shared one-group list; the list's only
	// element is the interned name.
	lists map[string][]string
}

// List returns the one-group list naming b. Interned lists are shared:
// read-only, with no spare capacity for an append to write into.
func (n *Names) List(b []byte) []string {
	if l, ok := n.lists[string(b)]; ok {
		return l
	}
	l := []string{string(b)}
	if len(n.lists) < maxNames {
		if n.lists == nil {
			n.lists = make(map[string][]string)
		}
		n.lists[l[0]] = l
	}
	return l
}

// Name returns b as a string, interned.
func (n *Names) Name(b []byte) string { return n.List(b)[0] }

// Decode parses an encoded envelope into e, overwriting it. Payload
// aliases b. Group names come from names when it is non-nil — interned,
// and a one-group Groups list is then shared with other envelopes and must
// not be modified — and are fresh copies otherwise.
func (e *Envelope) Decode(b []byte, names *Names) error {
	fail := func() error { return fmt.Errorf("group: truncated envelope") }
	if len(b) < 18 {
		return fail()
	}
	*e = Envelope{Kind: OpKind(b[0])}
	e.Sender.Daemon = evs.ProcID(binary.BigEndian.Uint32(b[1:]))
	e.Sender.Local = binary.BigEndian.Uint32(b[5:])
	e.Target.Daemon = evs.ProcID(binary.BigEndian.Uint32(b[9:]))
	e.Target.Local = binary.BigEndian.Uint32(b[13:])
	off := 17
	if e.Kind.hasArg() {
		if len(b) < 26 {
			return fail()
		}
		e.Arg = binary.BigEndian.Uint64(b[17:])
		off = 25
	}
	ng := int(b[off])
	off++
	if ng > MaxGroups {
		return fmt.Errorf("group: %d groups exceeds %d", ng, MaxGroups)
	}
	for i := 0; i < ng; i++ {
		if off >= len(b) {
			return fail()
		}
		gl := int(b[off])
		off++
		if off+gl > len(b) {
			return fail()
		}
		name := b[off : off+gl]
		switch {
		case names == nil:
			e.Groups = append(e.Groups, string(name))
		case ng == 1:
			e.Groups = names.List(name)
		default:
			if e.Groups == nil {
				e.Groups = make([]string, 0, ng)
			}
			e.Groups = append(e.Groups, names.Name(name))
		}
		off += gl
	}
	if off+4 > len(b) {
		return fail()
	}
	pl := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if off+pl != len(b) {
		return fmt.Errorf("group: envelope length mismatch")
	}
	if pl > 0 {
		e.Payload = b[off : off+pl : off+pl]
	}
	return e.Validate()
}
