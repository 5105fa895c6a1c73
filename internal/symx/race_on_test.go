//go:build race

package symx

// raceEnabled reports whether the race detector is active. The
// allocation test skips under -race: detector instrumentation allocates
// shadow state of its own, which AllocsPerRun would count.
const raceEnabled = true
