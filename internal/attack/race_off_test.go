//go:build !race

package attack_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
