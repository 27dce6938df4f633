//go:build race

package session

// raceEnabled lets allocation gates skip under the race detector, which
// drops pooled items at random.
const raceEnabled = true
