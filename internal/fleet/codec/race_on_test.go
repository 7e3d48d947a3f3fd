//go:build race

package codec

// raceEnabled reports whether the race detector is on: its
// instrumentation changes allocation counts.
const raceEnabled = true
