//go:build race

package client

// raceEnabled lets the allocation check skip under the race detector,
// whose sync.Pool drops pooled buffers at random.
const raceEnabled = true
