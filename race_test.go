//go:build race

package repro

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random and changes what escapes, so allocation bounds hold
// only without it.
const raceEnabled = true
