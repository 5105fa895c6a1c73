package predictor

// LoopPredictor detects branches with a regular trip count (the "L" in
// LTAGE) and overrides TAGE once confident. Loop branches in the simulated
// ISA are backward conditional branches; the predictor learns the iteration
// count between not-taken outcomes.
type LoopPredictor struct {
	entries []loopEntry
	mask    uint64
}

type loopEntry struct {
	tag        uint32
	tripCount  uint32 // learned iterations per loop visit
	currentIt  uint32
	confidence uint8 // confident when saturated
	valid      bool
}

const loopConfident = 3

// NewLoopPredictor builds a loop predictor with entries slots (power of 2).
func NewLoopPredictor(entries int) *LoopPredictor {
	return &LoopPredictor{entries: make([]loopEntry, entries), mask: uint64(entries - 1)}
}

// reset forgets every loop in place.
func (lp *LoopPredictor) reset() { clear(lp.entries) }

func (lp *LoopPredictor) entry(pc uint64) *loopEntry {
	return &lp.entries[pc&lp.mask]
}

// Predict returns (taken, confident). Callers should only use taken when
// confident is true.
func (lp *LoopPredictor) Predict(pc uint64) (bool, bool) {
	e := lp.entry(pc)
	if !e.valid || uint32(pc>>10) != e.tag || e.confidence < loopConfident {
		return false, false
	}
	// Predict taken until the learned trip count is reached.
	return e.currentIt+1 < e.tripCount, true
}

// Update trains the loop predictor with the resolved outcome.
func (lp *LoopPredictor) Update(pc uint64, taken bool) {
	e := lp.entry(pc)
	tag := uint32(pc >> 10)
	if !e.valid || e.tag != tag {
		*e = loopEntry{tag: tag, valid: true}
	}
	e.currentIt++
	if taken {
		return
	}
	// Loop exit: currentIt is the observed trip count for this visit.
	if e.tripCount == e.currentIt && e.tripCount > 0 {
		if e.confidence < loopConfident {
			e.confidence++
		}
	} else {
		e.tripCount = e.currentIt
		e.confidence = 0
	}
	e.currentIt = 0
}

// BTB is a direct-mapped branch target buffer. Fetch uses it to find the
// taken target of a predicted-taken branch or jump in the same cycle.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64

	Stats BTBStats
}

// BTBStats counts BTB events.
type BTBStats struct {
	Lookups uint64
	Hits    uint64
}

// NewBTB builds a BTB with entries slots (power of two).
func NewBTB(entries int) *BTB {
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		mask:    uint64(entries - 1),
	}
}

// reset empties the BTB in place and zeroes its counters.
func (b *BTB) reset() {
	clear(b.tags)
	clear(b.targets)
	clear(b.valid)
	b.Stats = BTBStats{}
}

// Lookup returns the predicted target for pc.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	b.Stats.Lookups++
	i := pc & b.mask
	if b.valid[i] && b.tags[i] == pc {
		b.Stats.Hits++
		return b.targets[i], true
	}
	return 0, false
}

// Insert records pc's taken target.
func (b *BTB) Insert(pc, target uint64) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
}

// RAS is the return address stack. It is updated speculatively at predict
// time; each in-flight control-flow instruction snapshots it (top-of-stack
// pointer and value) so mispredictions can repair it.
type RAS struct {
	stack []uint64
	top   int // index of next push; stack[top-1] is TOS
}

// NewRAS builds a return address stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth)}
}

// reset empties the stack in place.
func (r *RAS) reset() {
	clear(r.stack)
	r.top = 0
}

// Push records a return address (on a predicted call).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top%len(r.stack)] = addr
	r.top++
}

// Pop predicts a return target. An empty stack predicts 0.
func (r *RAS) Pop() uint64 {
	if r.top == 0 {
		return 0
	}
	r.top--
	return r.stack[r.top%len(r.stack)]
}

// Snapshot captures the RAS state for later repair.
type RASSnapshot struct {
	Top int
	TOS uint64
}

// Snapshot returns the current top pointer and top-of-stack value.
func (r *RAS) Snapshot() RASSnapshot {
	s := RASSnapshot{Top: r.top}
	if r.top > 0 {
		s.TOS = r.stack[(r.top-1)%len(r.stack)]
	}
	return s
}

// Restore rewinds the RAS to a snapshot (approximate repair: the top
// pointer and top value are restored; deeper corruption self-heals, which
// matches hardware RAS behavior).
func (r *RAS) Restore(s RASSnapshot) {
	r.top = s.Top
	if r.top > 0 {
		r.stack[(r.top-1)%len(r.stack)] = s.TOS
	}
}

// Indirect is a tagged indirect-target predictor (ITTAGE-lite): a single
// table indexed by PC hashed with global history.
type Indirect struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64
}

// NewIndirect builds an indirect predictor with entries slots (power of 2).
func NewIndirect(entries int) *Indirect {
	return &Indirect{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		mask:    uint64(entries - 1),
	}
}

// reset empties the predictor in place.
func (ip *Indirect) reset() {
	clear(ip.tags)
	clear(ip.targets)
	clear(ip.valid)
}

func (ip *Indirect) index(pc uint64, hist History) uint64 {
	return (pc ^ fold(hist.G, 16, 10) ^ (fold(hist.P, 16, 10) << 1)) & ip.mask
}

// Lookup predicts the target of the indirect jump at pc.
func (ip *Indirect) Lookup(pc uint64, hist History) (uint64, bool) {
	i := ip.index(pc, hist)
	if ip.valid[i] && ip.tags[i] == pc {
		return ip.targets[i], true
	}
	return 0, false
}

// Update records the resolved target.
func (ip *Indirect) Update(pc uint64, hist History, target uint64) {
	i := ip.index(pc, hist)
	ip.tags[i] = pc
	ip.targets[i] = target
	ip.valid[i] = true
}
