//go:build race

package groupcore

// raceEnabled lets the allocation gates that count on sync.Pool skip
// under the race detector, whose sync.Pool drops pooled items at random.
const raceEnabled = true
