//go:build !race

package repro

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
