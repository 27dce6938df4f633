//go:build !linux

package main

import "time"

// Off Linux the two readers report their metrics as unavailable — the
// benchmark then refuses to produce a result rather than print zeros —
// and the logs live on the Go heap.

func processCPU() (time.Duration, bool) { return 0, false }

func peakRSSMB() (float64, bool) { return 0, false }

func offHeap(size int) ([]byte, func(), error) { return make([]byte, size), func() {}, nil }
