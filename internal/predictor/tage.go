// Package predictor implements the front-end prediction structures of the
// simulated core: an LTAGE-class conditional branch predictor (TAGE tagged
// geometric-history tables plus a loop predictor), a branch target buffer,
// a return address stack, and a simple tagged indirect-target predictor.
//
// The paper's Table 1 machine uses gem5's LTAGE; this package implements
// the same predictor family from scratch.
package predictor

// The simulated machine's TAGE geometry: a 4K-entry bimodal base and
// six tagged tables of 1K entries with geometric history lengths, each
// indexed and tagged by 10-bit hashes. It is fixed so that a lookup folds
// the history with constant shifts.
const (
	tageBaseEntries = 4096
	tageTables      = 6
	tageBits        = 10 // index and tag width of a tagged table
	tageEntries     = 1 << tageBits
)

// tageHistLens are the tagged tables' global-history lengths.
var tageHistLens = [tageTables]int{4, 8, 16, 32, 64, 128}

// tageHistMasks holds, per tagged table, the masks that keep the newest
// histLen bits of the global history (g) and the newest histLen/2 bits of
// the path history (p) — what fold keeps of each before folding.
var tageHistMasks = func() (m [tageTables]struct{ g, p uint64 }) {
	for i, hl := range tageHistLens {
		m[i].g, m[i].p = lowBits(hl), lowBits(hl/2)
	}
	return m
}()

// lowBits returns a mask of the low n bits (all 64 when n >= 64).
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed counter: -4..3, taken if >= 0
	useful uint8 // 2-bit useful counter
}

// TAGE is a tagged geometric-history-length conditional branch predictor
// with a bimodal base table.
type TAGE struct {
	base   *[tageBaseEntries]int8 // 2-bit counters: -2..1, taken if >= 0
	tagged *[tageTables][tageEntries]tageEntry

	rng uint32 // xorshift state for allocation randomization

	Stats TAGEStats
}

// TAGEStats counts predictor events.
type TAGEStats struct {
	Lookups     uint64
	ProviderHit uint64 // prediction came from a tagged table
	Allocs      uint64
}

// History is the speculative global branch history, owned by the fetch
// unit. Each in-flight branch snapshots it so squashes can restore it.
type History struct {
	G uint64 // global taken/not-taken history, newest bit at bit 0
	P uint64 // path history (low bits of branch PCs)
}

// Update shifts the outcome of one branch into the history.
func (h History) Update(pc uint64, taken bool) History {
	h.G <<= 1
	if taken {
		h.G |= 1
	}
	h.P = h.P<<1 | (pc & 1) | ((pc >> 5) & 1)
	return h
}

// DefaultTAGE returns the predictor used by the simulated machine, with
// every counter and tag zero.
func DefaultTAGE() *TAGE {
	return &TAGE{
		base:   new([tageBaseEntries]int8),
		tagged: new([tageTables][tageEntries]tageEntry),
		rng:    0x2545F491,
	}
}

// fold compresses the low histLen bits of h into outBits by XOR-ing
// successive outBits-wide chunks together. Outputs of 8 bits or more use
// foldTo's branch-free cascade; narrower ones keep the reference loop.
// fold_test.go cross-checks the two forms. Indirect's index folds with it;
// TAGE's lookup masks its history once per table and calls foldTo with
// constant widths instead.
func fold(h uint64, histLen, outBits int) uint64 {
	h &= lowBits(histLen)
	b := uint(outBits)
	if b >= 8 {
		return foldTo(h, b)
	}
	var f uint64
	for h != 0 {
		f ^= h & (1<<b - 1)
		h >>= b
	}
	return f
}

// foldTo XORs all b-bit chunks of h into its low b bits, for b >= 8 (at
// most eight chunks in a 64-bit word): after h ^= h>>b, bit p holds chunk
// XORs at stride b; two more doublings cover strides 2b and 4b, so the
// low b bits end up with the XOR of all ceil(64/b) <= 8 chunks. Shifts of
// 64 or more are well-defined in Go (they yield zero), which makes the
// later steps harmless no-ops once every chunk is folded in. Called with
// a constant b, it inlines to six constant shifts and XORs.
func foldTo(h uint64, b uint) uint64 {
	h ^= h >> b
	h ^= h >> (2 * b)
	h ^= h >> (4 * b)
	return h & (1<<b - 1)
}

// Prediction describes a TAGE lookup result; it must be passed back to
// Update so the same provider entry is trained.
type Prediction struct {
	Taken     bool
	provider  int // index into tagged tables, -1 for bimodal
	altTaken  bool
	indices   [tageTables]uint16
	tags      [tageTables]uint16
	baseIndex uint64
}

// Predict looks up the direction for the branch at pc under history hist,
// filling p in place (the struct carries per-table indices and tags for
// Update, so it is returned through a pointer to avoid copying it twice
// per branch). Table i is indexed by pc ^ pc>>7 ^ fold(G, histLen, 10) ^
// fold(P, histLen/2, 10) and tagged by pc ^ fold(G, histLen, 10) ^
// fold(G, histLen, 9)<<1, each cut to 10 bits; the global fold is
// computed once for both.
func (t *TAGE) Predict(pc uint64, hist History, p *Prediction) {
	t.Stats.Lookups++
	p.baseIndex = pc & (tageBaseEntries - 1)
	p.Taken = t.base[p.baseIndex] >= 0
	p.altTaken = p.Taken
	p.provider = -1
	pcIdx := pc ^ pc>>7
	for i := range t.tagged {
		g := hist.G & tageHistMasks[i].g
		fg := foldTo(g, tageBits)
		idx := (pcIdx ^ fg ^ foldTo(hist.P&tageHistMasks[i].p, tageBits)) & (tageEntries - 1)
		tag := uint16((pc ^ fg ^ foldTo(g, tageBits-1)<<1) & (1<<tageBits - 1))
		p.indices[i], p.tags[i] = uint16(idx), tag
		if e := &t.tagged[i][idx]; e.tag == tag {
			p.altTaken = p.Taken
			p.Taken = e.ctr >= 0
			p.provider = i
		}
	}
	if p.provider >= 0 {
		t.Stats.ProviderHit++
	}
}

func (t *TAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Update trains the predictor with the branch's resolved direction.
func (t *TAGE) Update(pc uint64, hist History, p *Prediction, taken bool) {
	// Train the provider.
	if p.provider >= 0 {
		e := &t.tagged[p.provider][p.indices[p.provider]]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		// Useful counter: provider was right where the alternate was wrong.
		if (e.ctr >= 0) == taken && p.altTaken != taken {
			if e.useful < 3 {
				e.useful++
			}
		}
	} else {
		b := &t.base[p.baseIndex]
		if taken && *b < 1 {
			*b++
		} else if !taken && *b > -2 {
			*b--
		}
	}

	// On a misprediction, allocate a new entry in a longer-history table.
	if p.Taken != taken && p.provider < tageTables-1 {
		start := p.provider + 1
		// Randomize the starting table a little to avoid ping-ponging.
		if start < tageTables-1 && t.nextRand()&3 == 0 {
			start++
		}
		for i := start; i < tageTables; i++ {
			e := &t.tagged[i][p.indices[i]]
			if e.useful == 0 {
				e.tag = p.tags[i]
				e.useful = 0
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				t.Stats.Allocs++
				return
			}
		}
		// No free entry: age the useful counters along the allocation path.
		for i := start; i < tageTables; i++ {
			e := &t.tagged[i][p.indices[i]]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
}
