//go:build !race

package symx

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
