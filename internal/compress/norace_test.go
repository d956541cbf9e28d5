//go:build !race

package compress

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
