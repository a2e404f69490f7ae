//go:build !race

package smtbalance

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
