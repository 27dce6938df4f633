//go:build !race

package groupcore

const raceEnabled = false
