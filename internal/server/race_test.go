//go:build race

package server_test

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random, so allocation bounds that rely on a pooled
// buffer hold only without it.
const raceEnabled = true
