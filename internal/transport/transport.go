// Package transport moves encoded protocol frames between participants.
//
// The ring protocol hands the driver two logical channels per participant,
// as the paper's implementations do (§III-E): data messages (and membership
// join messages) arrive on the data channel, tokens (and membership commit
// tokens) on the token channel. Holding the two classes apart lets the
// driver implement the token/data priority scheme.
//
// Two implementations are provided: an in-process Hub for tests, examples,
// and single-process deployments, and a UDP transport for real networks
// (IP unicast fan-out standing in for IP-multicast, which the paper notes
// Spread also supports as a fallback). Unlike the paper's prototypes, UDP
// receives both classes on one socket per ring and routes each frame by
// its wire type, so the kernel's receive queue is the arrival order. UDP
// is also a Stager: a sender that stages its multicasts has each run of
// equal-size frames leave as one segmented send per peer (UDP_SEGMENT)
// and read back as one coalesced datagram (UDP_GRO), where the kernel
// offers both.
package transport

import (
	"errors"

	"accelring/internal/evs"
)

// Transport is the frame mover for one participant. Implementations must
// be safe for one sender goroutine and deliver received frames into the
// channels returned by Data and Token.
//
// Buffer ownership, in both directions:
//
//   - Sends borrow: a frame passed to Multicast or Unicast is only valid
//     for the duration of the call. The transport transmits or copies it
//     before returning and never retains it, so callers may reuse one
//     encode scratch buffer for every send.
//   - Receives hand off: a frame read from Data or Token belongs to the
//     consumer. The provided implementations rent receive buffers from
//     internal/bufpool; the consumer should bufpool.Put each frame once
//     nothing reads it any more (recycling is optional — see the bufpool
//     ownership rules — but keeps the steady state allocation-free).
//     ringnode.Node Puts every frame it is handed, a data frame whose
//     message the ring retained once that message is stable and nothing
//     reads its payload.
//
// Ordering: data that reached the participant before a token is queued on
// Data before the token reaches Token, so a reader polling Data first never
// requests a frame it already holds (§III-D/E). Hub (without an injected
// delay), UDP (one reader queues its socket's frames in arrival order,
// routing each by wire type) and WithAuth over either keep it. Every
// implementation drops a frame that finds its channel full rather than
// wait for the consumer, so a token never waits behind unread data.
type Transport interface {
	// Multicast sends a frame to every other participant's data channel.
	Multicast(frame []byte) error
	// Unicast sends a frame to one participant. A Hub queues it on the
	// token channel; UDP queues every frame by its wire type.
	Unicast(to evs.ProcID, frame []byte) error
	// Data returns the channel of received data-class frames.
	Data() <-chan []byte
	// Token returns the channel of received token-class frames.
	Token() <-chan []byte
	// Close releases resources and stops delivery. Whether the receive
	// channels are closed is implementation-defined; drivers must also
	// have their own stop signal.
	Close() error
}

// Stager is a Transport that can hold multicasts back and send them
// together. Stage queues a frame for every other participant's data
// channel, borrowing it as Multicast does; Flush sends whatever is
// staged. Multicast and Unicast send what is staged ahead of their own
// frame, so the send order is the order of the calls and data staged
// before a token leaves ahead of it. A staged frame is on the wire once
// one of the three returns; the sender calls Flush before it waits.
type Stager interface {
	Transport
	Stage(frame []byte) error
	Flush()
}

// ErrClosed is returned by sends on a closed transport.
var ErrClosed = errors.New("transport: closed")
