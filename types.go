package accelring

import (
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/groupcore"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringconf"
	"accelring/internal/transport"
)

// Type aliases re-exporting the stable pieces of the internal packages, so
// applications only ever import accelring.
type (
	// Config configures a Node. It is the one ring-stack declaration
	// (internal/ringconf) that cmd/ringdaemon binds its flags into too;
	// Validate fills in defaults, and Open calls it for you. Protocol
	// selects its ring protocol variant; WireConfig is its transport
	// configuration (transport, addressing, per-shard port stride,
	// packing).
	Config     = ringconf.Config
	Protocol   = ringconf.Protocol
	WireConfig = ringconf.WireConfig

	// ProcID identifies one ring participant (a daemon in the paper's
	// terms). IDs must be unique and nonzero across the deployment.
	ProcID = evs.ProcID

	// ViewID identifies a ring configuration: the representative that
	// formed it plus a sequence number.
	ViewID = evs.ViewID

	// Service is a delivery guarantee level (Reliable … Safe).
	Service = evs.Service

	// ClientID globally identifies a group-messaging endpoint: the node
	// it lives on plus a node-local number. The facade gives each Node
	// exactly one endpoint, so ClientID.Daemon equals the node's Self.
	ClientID = group.ClientID

	// Transport moves protocol frames between participants.
	Transport = transport.Transport

	// Hub is an in-process transport for tests and examples: endpoints
	// created from one Hub form a loss-free virtual network.
	Hub = transport.Hub

	// UDPAddrs holds one participant's pair of UDP listen addresses —
	// data and token traffic use separate sockets, as in the paper's
	// implementations.
	UDPAddrs = transport.UDPPeer

	// Timeouts are the membership protocol's timing parameters; zero
	// fields take defaults (see DefaultTimeouts).
	Timeouts = membership.Timeouts

	// Registry is a metrics registry (counters, gauges, histograms) that
	// the node populates when passed via WithObserver.
	Registry = obs.Registry

	// Recorder is a bounded ring of the last recorded events, dumpable as
	// JSONL: a node's black-box recorder (Node.Recorder) and, with a
	// sampling gate, its message tracers. Register either with
	// DebugServer.Add.
	Recorder = obs.Recorder

	// MsgTracer is a Recorder retaining sampled message-lifecycle spans
	// (see WithTraceSampling).
	MsgTracer = obs.MsgTracer

	// RecordedEvent is the one scalar record a Recorder holds: a stage of
	// a sampled message's lifecycle, or a black-box protocol event.
	RecordedEvent = obs.Event

	// EventKind classifies a RecordedEvent: the Stage* lifecycle stages
	// below, or a black-box kind ("token_rx", "state", ...).
	EventKind = obs.Kind

	// RoundTrace is the /debug/ring rendering of one token visit:
	// sequence numbers, aru, fcc, counts of new/retransmitted messages
	// and the token hold time.
	RoundTrace = obs.RoundTrace

	// DebugServer serves /debug/vars, /debug/ring, /debug/msgtrace,
	// /debug/flight, /debug/health, /debug/latency, /metrics and
	// /debug/pprof.
	DebugServer = obs.Server

	// LatencyAgg folds sampled message spans into per-stage latency
	// histograms (latency.stage.*_ns, latency.e2e_ns); attach a node with
	// Node.AttachLatency and serve digests with DebugServer.SetLatency.
	LatencyAgg = obs.LatencyAgg

	// SLO evaluates p99/p999 latency targets over the e2e histograms a
	// LatencyAgg maintains, exporting burn-rate gauges (slo.*).
	SLO = obs.SLO

	// SLOConfig parameterizes an SLO evaluator: targets, rolling window,
	// burn factor.
	SLOConfig = obs.SLOConfig

	// SLOStatus is one scope's state after an SLO evaluation pass.
	SLOStatus = obs.SLOStatus
)

// Protocol variants, and the defaults Validate fills in for zero Config
// fields.
const (
	ProtocolAccelerated      = ringconf.ProtocolAccelerated
	ProtocolOriginal         = ringconf.ProtocolOriginal
	DefaultPersonalWindow    = ringconf.DefaultPersonalWindow
	DefaultGlobalWindow      = ringconf.DefaultGlobalWindow
	DefaultAcceleratedWindow = ringconf.DefaultAcceleratedWindow
	DefaultEventBuffer       = ringconf.DefaultEventBuffer
	DefaultShardStride       = ringconf.DefaultShardStride
	MaxShards                = groupcore.MaxShards
)

// Delivery service levels, in increasing strength. The ring totally orders
// every message; the level determines when delivery is allowed.
const (
	Reliable = evs.Reliable
	FIFO     = evs.FIFO
	Causal   = evs.Causal
	Agreed   = evs.Agreed
	Safe     = evs.Safe
)

// Message-lifecycle stages (EventKind values) recorded by a MsgTracer
// (see WithTraceSampling), in protocol order.
const (
	StagePack        = obs.StagePack
	StageSubmit      = obs.StageSubmit
	StageSentPre     = obs.StageSentPre
	StageSentPost    = obs.StageSentPost
	StageBatchFlush  = obs.StageBatchFlush
	StageRecv        = obs.StageRecv
	StageRecvDup     = obs.StageRecvDup
	StageRtrRequest  = obs.StageRtrRequest
	StageRetransmit  = obs.StageRetransmit
	StageDeliver     = obs.StageDeliver
	StageMergeOut    = obs.StageMergeOut
	StageFanout      = obs.StageFanout
	StageWriterFlush = obs.StageWriterFlush
	StageClientRecv  = obs.StageClientRecv
)

// RingOf returns the ring that owns a group name in a node opened with
// WithShards(shards). The hash is stable across processes and releases:
// every node routes a group to the same ring, which is what preserves the
// group's total order in a sharded deployment.
func RingOf(groupName string, shards int) int { return group.RingOf(groupName, shards) }

// NewHub returns an in-process virtual network for tests and examples.
func NewHub() *Hub { return transport.NewHub() }

// NewRegistry returns an empty metrics registry to pass to WithObserver
// and StartDebugServer.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewLatencyAgg returns a latency aggregator registering its per-stage
// histograms on reg (nil reg disables attribution). Feed it a node's
// tracers with Node.AttachLatency and serve it at /debug/latency with
// DebugServer.SetLatency.
func NewLatencyAgg(reg *Registry) *LatencyAgg { return obs.NewLatencyAgg(reg) }

// NewSLO returns a latency-SLO evaluator exporting per-scope burn-rate
// gauges on reg. Track each scope's end-to-end histogram with
// SLO.Track(scope, agg.E2E(scope)).
func NewSLO(reg *Registry, cfg SLOConfig) *SLO { return obs.NewSLO(reg, cfg) }

// DefaultTimeouts returns the membership timing defaults used when
// Config.Timeouts is zero.
func DefaultTimeouts() Timeouts { return membership.DefaultTimeouts() }

// StartDebugServer serves reg at addr: /debug/vars (JSON metrics),
// /metrics (Prometheus text exposition), /debug/health (ring health;
// SetHealth), /debug/pprof, and three views of the recorders registered
// with Add: /debug/ring (recent token-round traces), /debug/msgtrace
// (sampled message spans) and /debug/flight (black-box event dumps).
// Close the returned server when done.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	return obs.StartServer(addr, reg)
}
