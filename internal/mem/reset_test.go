package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// hierarchyTraffic drives h with n random operations — data reads and
// writes, instruction fetches and, now and then, FlushAll — over a 64 KiB
// range, where lines of different sets share tags, and returns every
// result in order.
func hierarchyTraffic(h *Hierarchy, rng *rand.Rand, n int) []uint64 {
	var out []uint64
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(4))
		addr := uint64(rng.Intn(64 << 10))
		switch k := rng.Intn(16); {
		case k < 10:
			done, ok := h.AccessData(now, addr, k >= 7)
			out = append(out, done)
			if !ok {
				out = append(out, 1<<63)
			}
		case k < 15:
			out = append(out, h.AccessInstr(now, addr))
		default:
			h.FlushAll()
		}
	}
	return out
}

// TestHierarchyResetMatchesNew drives a hierarchy with the shadow L1's
// hooks installed, resets it, then feeds it and a new hierarchy the same
// stream: every result and counter must match, the hooks must be gone and
// the two must end in the same state.
func TestHierarchyResetMatchesNew(t *testing.T) {
	small := DefaultHierarchyConfig()
	small.L1D = CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, LatencyCycles: 2}
	small.TLBEntries = 4
	for i, cfg := range []HierarchyConfig{DefaultHierarchyConfig(), small} {
		rng := rand.New(rand.NewSource(int64(77 + i)))
		h := NewHierarchy(cfg)
		for round := 0; round < 4; round++ {
			fills := 0
			h.L1D.OnFill = func(uint64) { fills++ }
			h.L1D.OnEvict = func(uint64) { fills-- }
			hierarchyTraffic(h, rng, 2000+rng.Intn(2000))
			h.Reset()
			if h.L1D.OnFill != nil || h.L1D.OnEvict != nil {
				t.Fatalf("config %d round %d: Reset left the L1D hooks installed", i, round)
			}
			ref := NewHierarchy(cfg)
			seed := rng.Int63()
			got := hierarchyTraffic(h, rand.New(rand.NewSource(seed)), 3000)
			want := hierarchyTraffic(ref, rand.New(rand.NewSource(seed)), 3000)
			if j := firstDiffU64(got, want); j >= 0 {
				t.Fatalf("config %d round %d: result %d after Reset differs from a new hierarchy's", i, round, j)
			}
			for _, c := range []struct {
				name     string
				got, ref any
			}{
				{"Stats", h.Stats, ref.Stats}, {"L1I", h.L1I.Stats(), ref.L1I.Stats()},
				{"L1D", h.L1D.Stats(), ref.L1D.Stats()}, {"L2", h.L2.Stats(), ref.L2.Stats()},
				{"L3", h.L3.Stats(), ref.L3.Stats()}, {"DTLB", h.DTLB.Stats, ref.DTLB.Stats},
			} {
				if c.got != c.ref {
					t.Fatalf("config %d round %d: %s after Reset %+v, new hierarchy %+v", i, round, c.name, c.got, c.ref)
				}
			}
			if !reflect.DeepEqual(h, ref) {
				t.Fatalf("config %d round %d: state after Reset and the same traffic differs from a new hierarchy's", i, round)
			}
		}
	}
}

func firstDiffU64(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
