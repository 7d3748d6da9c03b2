//go:build race

package experiment

// raceEnabled reports a -race build, whose instrumentation inflates the
// heap.
const raceEnabled = true
