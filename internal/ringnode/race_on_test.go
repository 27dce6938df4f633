//go:build race

package ringnode

// raceEnabled lets the pool test skip under the race detector, whose
// sync.Pool drops buffers at random.
const raceEnabled = true
