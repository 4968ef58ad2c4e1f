//go:build perfgate && !race

package wire

// raceEnabled: see race_test.go.
const raceEnabled = false
