package checkpoint

import (
	"reflect"
	"testing"

	"spt/internal/mem"
)

// TestWalkerReplayMatchesHooked pins the block-granular warming fast path
// (Advance → RunWarm → replay) to the per-instruction reference
// (AdvanceHooked → warmOne + Step, no block engine): after advancing the
// same program to the same points through both paths, the pseudo-clock,
// the entire warm hierarchy and predictor state, and the architectural
// snapshot must all match exactly. The uneven targets land advances
// inside blocks (Step-tail path) and across event-buffer flushes.
func TestWalkerReplayMatchesHooked(t *testing.T) {
	hcfg := mem.DefaultHierarchyConfig()
	for _, name := range []string{"gcc", "mcf", "xz", "aes-bitslice"} {
		p := buildProg(t, name, 1<<40)
		fast := NewWalker(p, hcfg, true)
		ref := NewWalker(p, hcfg, true)
		for _, target := range []uint64{1, 997, 5_000, 5_003, 60_000} {
			if err := fast.Advance(target); err != nil {
				t.Fatal(err)
			}
			if err := ref.AdvanceHooked(target); err != nil {
				t.Fatal(err)
			}
			if fast.now != ref.now {
				t.Fatalf("%s@%d: pseudo-clock %d (replay) vs %d (hooked)", name, target, fast.now, ref.now)
			}
			if !reflect.DeepEqual(fast.Hier, ref.Hier) {
				t.Fatalf("%s@%d: warm hierarchies diverge between replay and hooked paths", name, target)
			}
			if !reflect.DeepEqual(fast.Pred, ref.Pred) {
				t.Fatalf("%s@%d: warm predictors diverge between replay and hooked paths", name, target)
			}
			fh, err := fast.Em.Snapshot().Hash()
			if err != nil {
				t.Fatal(err)
			}
			rh, err := ref.Em.Snapshot().Hash()
			if err != nil {
				t.Fatal(err)
			}
			if fh != rh {
				t.Fatalf("%s@%d: snapshot hashes diverge between replay and hooked paths", name, target)
			}
		}
	}
}
