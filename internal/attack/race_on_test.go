//go:build race

package attack_test

// raceEnabled reports whether the race detector is active. The
// allocation test skips under -race: detector instrumentation allocates
// shadow state of its own, which TotalAlloc would count.
const raceEnabled = true
