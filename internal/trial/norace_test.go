//go:build !race

package trial

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
