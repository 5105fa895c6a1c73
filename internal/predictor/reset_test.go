package predictor

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestUnitResetMatchesNew drives a unit with random branch traffic —
// conditional branches, calls, returns and indirect jumps, with squash
// recovery — then resets it: it must equal a new unit, field for field,
// the TAGE allocation RNG included.
func TestUnitResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	u := NewUnit()
	for round := 0; round < 3; round++ {
		for i := 0; i < 5000; i++ {
			pc := uint64(rng.Intn(1 << 14))
			var cp Checkpoint
			switch rng.Intn(4) {
			case 0, 1:
				taken := rng.Intn(3) != 0
				u.PredictCond(pc, &cp)
				if u.ResolveCond(&cp, taken, pc+uint64(rng.Intn(64))) {
					u.Recover(&cp, taken)
				}
			case 2:
				u.PredictJump(pc, pc+7, true, rng.Intn(2) == 0, false, &cp)
			default:
				u.PredictJump(pc, 0, false, false, rng.Intn(2) == 0, &cp)
				if u.ResolveJump(&cp, uint64(rng.Intn(1<<12)), true) {
					u.Recover(&cp, true)
				}
			}
		}
		if u.Tage.rng == tageSeed || u.Tage.Stats.Allocs == 0 {
			t.Fatal("traffic left the TAGE allocation state untouched")
		}
		u.Reset()
		if !reflect.DeepEqual(u, NewUnit()) {
			t.Fatalf("round %d: reset unit differs from NewUnit()", round)
		}
	}
}
