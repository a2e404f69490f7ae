//go:build race

package smtbalance

// raceEnabled reports whether the race detector is on.  Under it,
// sync.Pool drops a random quarter of what it is given.
const raceEnabled = true
