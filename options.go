package accelring

// Option mutates a Config inside Open. Options are applied in order, so a
// later option overrides an earlier one; Validate then fills defaults and
// rejects inconsistent results.
type Option func(*Config)

// WithSelf sets this participant's unique nonzero ID.
func WithSelf(id ProcID) Option {
	return func(c *Config) { c.Self = id }
}

// WithProtocol selects the protocol variant (default ProtocolAccelerated).
func WithProtocol(p Protocol) Option {
	return func(c *Config) { c.Protocol = p }
}

// WithWindows sets the flow-control windows: personal (new messages one
// node may introduce per token round), global (ring-wide bound), and
// accelerated (how many of the personal messages are multicast before
// passing the token). Pass accelerated = 0 with ProtocolOriginal.
func WithWindows(personal, global, accelerated int) Option {
	return func(c *Config) {
		c.PersonalWindow = personal
		c.GlobalWindow = global
		c.AcceleratedWindow = accelerated
	}
}

// WithShards runs n independent ring instances and partitions groups
// across them by a stable hash of the group name (default 1, max
// MaxShards). Per-group total order is unchanged and aggregate ordering
// throughput multiplies; cross-group delivery order is only guaranteed
// for groups owned by the same ring. Supply one transport per ring via
// WithWire (WireConfig.Transports), or UDP addresses whose numeric ports
// leave a stride of free ports per ring (ring r uses the base port +
// WireConfig.ShardStride*r, default DefaultShardStride).
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithWire sets the unified transport configuration: transport
// (in-process or UDP unicast fan-out), addressing, per-shard port stride,
// and adaptive message packing.
func WithWire(w WireConfig) Option {
	return func(c *Config) { c.Wire = w }
}

// WithTimeouts sets the membership timing parameters; zero fields take
// defaults.
func WithTimeouts(t Timeouts) Option {
	return func(c *Config) { c.Timeouts = t }
}

// WithEventBuffer sets the Events channel capacity (default
// DefaultEventBuffer). A consumer that falls this far behind is
// disconnected with ErrSlowConsumer.
func WithEventBuffer(n int) Option {
	return func(c *Config) { c.EventBuffer = n }
}

// WithObserver directs the node's metrics into reg and turns on its
// black-box event recorder (Node.Recorder). Serve both with
// StartDebugServer.
func WithObserver(reg *Registry) Option {
	return func(c *Config) { c.Observer = reg }
}

// WithTraceSampling enables message-lifecycle tracing: every every-th
// sequence number (seq % every == 0) gets a span of per-stage events —
// submit, pre/post-token multicast, receive, retransmission, delivery —
// retained in a per-ring buffer served at /debug/msgtrace (register the
// node's MsgTracers with DebugServer.Add). Sampling is
// deterministic in the sequence number, so every node samples the same
// messages and spans merge across the cluster. Zero (the default)
// disables tracing entirely — the hot path keeps its zero-allocation
// guarantee.
func WithTraceSampling(every int) Option {
	return func(c *Config) { c.TraceSampling = every }
}

// WithRingKey authenticates every ring wire frame (token and data) with
// a truncated HMAC-SHA256 tag keyed from key. Each ring of a sharded
// node signs with its own derived subkey, so frames cannot be replayed
// across rings. All participants must be opened with the same key;
// frames that fail verification — forged, corrupted, or from an unkeyed
// node — are counted on transport.auth_drops and dropped before they can
// touch ordering state. An empty key disables authentication (the
// default).
func WithRingKey(key []byte) Option {
	return func(c *Config) { c.RingKey = append([]byte(nil), key...) }
}
