package predictor

import (
	"math/rand"
	"testing"
)

// foldRef is the original chunked-XOR loop. fold's branch-free cascade
// must agree with it bit for bit on every geometry the predictor uses —
// the warming fast path relies on the two being interchangeable.
func foldRef(h uint64, histLen, outBits int) uint64 {
	if histLen < 64 {
		h &= (1 << uint(histLen)) - 1
	}
	var f uint64
	for h != 0 {
		f ^= h & ((1 << uint(outBits)) - 1)
		h >>= uint(outBits)
	}
	return f
}

func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	histLens := []int{1, 3, 4, 8, 16, 32, 63, 64, 128}
	outBits := []int{8, 9, 10, 12, 16}
	inputs := []uint64{0, 1, ^uint64(0), 0x8000000000000000, 0x5555555555555555}
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, rng.Uint64())
	}
	for _, hl := range histLens {
		for _, ob := range outBits {
			for _, h := range inputs {
				if got, want := fold(h, hl, ob), foldRef(h, hl, ob); got != want {
					t.Fatalf("fold(%#x, %d, %d) = %#x, reference %#x", h, hl, ob, got, want)
				}
			}
		}
	}
}

// refIndex and refTag are a tagged table's index and tag hashes written
// directly in fold terms, four fold calls per table, for the Table-1
// geometry (10-bit index and tag). Predict computes the same values with
// per-table history masks and constant-shift folds.
func refIndex(histLen int, pc uint64, hist History) uint64 {
	h := fold(hist.G, histLen, 10) ^ fold(hist.P, histLen/2, 10)
	return (pc ^ (pc >> 7) ^ h) & (1<<10 - 1)
}

func refTag(histLen int, pc uint64, hist History) uint16 {
	h := fold(hist.G, histLen, 10) ^ (fold(hist.G, histLen, 9) << 1)
	return uint16((pc ^ h) & (1<<10 - 1))
}

// TestTAGELookupMatchesFold holds every table's index and tag, as
// Predict leaves them in the Prediction, to refIndex and refTag: random
// (pc, History) pairs, and edge values — zero, all ones, only bit 63,
// and only the bit at or just below each table's global and path
// history length.
func TestTAGELookupMatchesFold(t *testing.T) {
	edges := []uint64{0, ^uint64(0), 1 << 63}
	for _, hl := range tageHistLens {
		for _, n := range []int{hl - 1, hl, hl/2 - 1, hl / 2} {
			if n >= 0 && n < 64 {
				edges = append(edges, 1<<uint(n))
			}
		}
	}
	tg := DefaultTAGE()
	var p Prediction
	check := func(pc uint64, hist History) {
		t.Helper()
		tg.Predict(pc, hist, &p)
		for i, hl := range tageHistLens {
			if got, want := uint64(p.indices[i]), refIndex(hl, pc, hist); got != want {
				t.Fatalf("table %d (histLen %d): index(%#x, %+v) = %#x, reference %#x", i, hl, pc, hist, got, want)
			}
			if got, want := p.tags[i], refTag(hl, pc, hist); got != want {
				t.Fatalf("table %d (histLen %d): tag(%#x, %+v) = %#x, reference %#x", i, hl, pc, hist, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, g := range edges {
		for _, ph := range edges {
			check(rng.Uint64(), History{G: g, P: ph})
			check(edges[rng.Intn(len(edges))], History{G: g, P: ph})
		}
	}
	for i := 0; i < 20_000; i++ {
		check(rng.Uint64(), History{G: rng.Uint64(), P: rng.Uint64()})
	}
}

func BenchmarkFold(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var hs [256]uint64
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= fold(hs[i&255], 128, 10)
	}
	_ = sink
}
