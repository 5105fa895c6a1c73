//go:build race

package mem

// raceEnabled reports whether the race detector is active. The
// construction-cost test skips under -race: detector instrumentation
// allocates shadow state of its own, which TotalAlloc would count.
const raceEnabled = true
