//go:build !race

package ringnode

const raceEnabled = false
