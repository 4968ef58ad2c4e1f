//go:build perfgate && race

package wire

// raceEnabled reports whether this test binary was built with the race
// detector; timing-ratio guards skip under it (instrumentation inflates
// per-statement CPU cost, which shrinks the round-trip saving the
// guards measure).
const raceEnabled = true
