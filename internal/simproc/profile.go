// Package simproc hosts the production protocol step (ringnode.Step, with
// membership and packing) on the simulator: each participant is a
// single-threaded daemon pinned to one modeled core, reading tokens and
// data from separate bounded sockets with the protocol's priority rules,
// and paying CPU time per its cost Profile for every step input, send and
// client delivery. Combined with simnet it reproduces the performance
// trade-off the paper studies — on 1 GbE the network is the bottleneck,
// on 10 GbE the single core is — and the chaos harness runs the same hosts
// under faults.
package simproc

import (
	"accelring/internal/simnet"
	"accelring/internal/wire"
)

// Profile is the processing-cost model of one implementation from the
// paper's evaluation. Costs are charged on the node's single core; *_PerByte
// values are nanoseconds per wire byte. The three presets are calibrated so
// the simulated maximum throughputs land near the paper's measurements; the
// protocol comparison (original vs accelerated) does not depend on the
// absolute values.
type Profile struct {
	// Name labels output rows ("library", "daemon", "spread").
	Name string

	// RecvDataFixed/RecvDataPerByte: cost to read and process one incoming
	// data message (socket read, decode, buffer insertion).
	RecvDataFixed   simnet.Time
	RecvDataPerByte float64
	// RecvTokenFixed: cost to read and process the token.
	RecvTokenFixed simnet.Time
	// SendFixed/SendPerByte: cost of one multicast or token send syscall.
	SendFixed   simnet.Time
	SendPerByte float64
	// DeliverFixed/DeliverPerByte: cost to deliver one message to local
	// clients. Spread pays heavily here (group-name analysis, per-client
	// routing, IPC write); the library prototype pays almost nothing.
	DeliverFixed   simnet.Time
	DeliverPerByte float64
	// SubmitFixed/SubmitPerByte: cost to ingest one message from a local
	// sending client (IPC read, header parse).
	SubmitFixed   simnet.Time
	SubmitPerByte float64
	// ClientHop is the one-way latency between a co-located client and the
	// daemon outside the daemon's CPU (IPC transport and scheduling). It is
	// added once at submission and once at delivery. Zero for the
	// library-based prototype, whose process is the participant.
	ClientHop simnet.Time
	// HeaderBytes is the per-message wire overhead on top of the payload.
	// Spread's large headers (group names, sender names) make it reach
	// "network saturation" at ~920 Mbps of 1350-byte payloads on 1 GbE.
	HeaderBytes int
	// TokenBytes is the base wire size of a token without retransmission
	// requests.
	TokenBytes int
}

// Library returns the cost model of the paper's library-based prototype:
// the application process is the participant, no client communication.
func Library() Profile {
	return Profile{
		Name:            "library",
		RecvDataFixed:   900 * simnet.Nanosecond,
		RecvDataPerByte: 0.85,
		RecvTokenFixed:  2 * simnet.Microsecond,
		SendFixed:       500 * simnet.Nanosecond,
		SendPerByte:     0.35,
		DeliverFixed:    140 * simnet.Nanosecond,
		DeliverPerByte:  0.19,
		SubmitFixed:     100 * simnet.Nanosecond,
		SubmitPerByte:   0.02,
		ClientHop:       0,
		HeaderBytes:     40,
		TokenBytes:      70,
	}
}

// Daemon returns the cost model of the paper's daemon-based prototype: a
// realistic single-group daemon with local clients over IPC.
func Daemon() Profile {
	return Profile{
		Name:            "daemon",
		RecvDataFixed:   1300 * simnet.Nanosecond,
		RecvDataPerByte: 0.95,
		RecvTokenFixed:  5 * simnet.Microsecond,
		SendFixed:       800 * simnet.Nanosecond,
		SendPerByte:     0.40,
		DeliverFixed:    440 * simnet.Nanosecond,
		DeliverPerByte:  0.25,
		SubmitFixed:     500 * simnet.Nanosecond,
		SubmitPerByte:   0.10,
		ClientHop:       25 * simnet.Microsecond,
		HeaderBytes:     60,
		TokenBytes:      80,
	}
}

// Spread returns the cost model of production Spread: large headers for
// descriptive group and sender names, hundreds of clients and groups
// supported, multi-group multicast — and therefore an expensive delivery
// path (the paper attributes Spread's higher Agreed latency under the
// original protocol to exactly this cost sitting on the critical path).
func Spread() Profile {
	return Profile{
		Name:            "spread",
		RecvDataFixed:   1700 * simnet.Nanosecond,
		RecvDataPerByte: 0.80,
		RecvTokenFixed:  12 * simnet.Microsecond,
		SendFixed:       1000 * simnet.Nanosecond,
		SendPerByte:     0.40,
		DeliverFixed:    1580 * simnet.Nanosecond,
		DeliverPerByte:  0.38,
		SubmitFixed:     900 * simnet.Nanosecond,
		SubmitPerByte:   0.12,
		ClientHop:       55 * simnet.Microsecond,
		HeaderBytes:     150,
		TokenBytes:      120,
	}
}

// recvDataCost returns the CPU cost to process an incoming data packet.
func (p *Profile) recvDataCost(wireBytes int) simnet.Time {
	return p.RecvDataFixed + simnet.Time(p.RecvDataPerByte*float64(wireBytes))
}

// sendCost returns the CPU cost of one send syscall.
func (p *Profile) sendCost(wireBytes int) simnet.Time {
	return p.SendFixed + simnet.Time(p.SendPerByte*float64(wireBytes))
}

// deliverCost returns the CPU cost to deliver a payload to clients.
func (p *Profile) deliverCost(payloadBytes int) simnet.Time {
	return p.DeliverFixed + simnet.Time(p.DeliverPerByte*float64(payloadBytes))
}

// submitCost returns the CPU cost to ingest a client message.
func (p *Profile) submitCost(payloadBytes int) simnet.Time {
	return p.SubmitFixed + simnet.Time(p.SubmitPerByte*float64(payloadBytes))
}

// dataWire returns the modeled wire size of a data message.
func (p *Profile) dataWire(payloadBytes int) int { return payloadBytes + p.HeaderBytes }

// tokenWire returns the modeled wire size of a token with nRtr requests.
func (p *Profile) tokenWire(nRtr int) int { return p.TokenBytes + 8*nRtr }

// tokenOverhead is the encoded size of a token without requests.
var tokenOverhead = (&wire.Token{}).EncodedLen()

// frameWire returns the modeled wire size of an encoded frame: a data
// frame is dataWire of its payload and a token tokenWire of its
// retransmission requests — the profile's sizes stand in for the
// encoding's own — and membership frames count as encoded.
func (p *Profile) frameWire(frame []byte) int {
	switch t, _ := wire.PeekType(frame); t {
	case wire.FrameData:
		return p.dataWire(len(frame) - wire.DataOverhead)
	case wire.FrameToken:
		return p.tokenWire((len(frame) - tokenOverhead) / 8)
	}
	return len(frame)
}
