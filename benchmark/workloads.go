package main

import (
	"accelring/internal/evs"
)

// workload is one traffic mix. Everything the system under test sees is
// derived from these fields and the seed.
type workload struct {
	name string
	why  string // kept identical to BENCHMARK.json by TestDeclaredNamesMatch

	open        bool    // open loop on a Poisson schedule; otherwise closed loop
	rate        float64 // open loop: aggregate offered messages per second
	outstanding int     // closed loop: own messages in flight per connection

	service evs.Service
	size    int      // payload bytes
	shards  int      // rings per daemon
	groups  []string // every client joins all of them
	weights []int    // traffic split across groups
}

// workloads is the fixed table the benchmark runs. Rates were sized on a
// 2-core box where closed-loop saturation is roughly 42k msg/s, so the
// open loops run at about 40% of capacity.
var workloads = []workload{
	{
		name: "steady_agreed_1350",
		why:  "open loop at under half of capacity: latency is set by token rotation, timers and retransmission, not per-message CPU",
		open: true, rate: 16000,
		service: evs.Agreed, size: 1350, shards: 1,
		groups: []string{"g-0"}, weights: []int{1},
	},
	{
		name:        "saturate_agreed_1350",
		why:         "closed loop, 32 in flight per connection: CPU-bound, every layer's per-message and per-byte cost lands in throughput",
		outstanding: 32,
		service:     evs.Agreed, size: 1350, shards: 1,
		groups: []string{"g-0"}, weights: []int{1},
	},
	{
		name:        "saturate_safe_100",
		why:         "closed loop, Safe delivery of 100 B messages: stability wait and per-message overhead dominate, the only shape packing can bundle",
		outstanding: 32,
		service:     evs.Safe, size: 100, shards: 1,
		groups: []string{"g-0"}, weights: []int{1},
	},
	{
		name: "steady_sharded_1350",
		why:  "same offered load as steady_agreed_1350 on two rings with 3:1 skew: the row-to-row delta is the cost of sharding and the global merge",
		open: true, rate: 16000,
		service: evs.Agreed, size: 1350, shards: 2,
		groups: []string{"g-0", "g-1"}, weights: []int{3, 1},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}
