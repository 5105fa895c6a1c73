package taint

import (
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// STT implements Speculative Taint Tracking (Yu et al., MICRO'19), the
// paper's narrower-scope comparison point: only speculatively-accessed
// data (outputs of loads that have not reached the visibility point) is
// tainted. Non-speculatively-accessed data — including architectural
// secrets read by retired loads — is never protected; the differential
// penetration test in internal/attack demonstrates exactly that gap.
//
// Following the paper's evaluation (footnote 6), stores are treated as
// transmitters for consistency with SPT.
type STT struct {
	core *pipeline.Core
	// sTaint is the per-physical-register speculative taint.
	sTaint []bool
	// win mirrors the ROB and marks the slots Tick must re-evaluate.
	win window
	// wrote records whether the last Tick changed any s-taint, the core's
	// TickWrote answer.
	wrote bool

	Stats STTStats
}

// STTStats counts s-taint events.
type STTStats struct {
	// Untaints counts registers whose s-taint was cleared by the
	// single-cycle transitive untaint after a load crossed the VP.
	Untaints uint64
	// TaintedAtRename counts instructions whose output was s-tainted at
	// rename (loads, and ops with at least one s-tainted input).
	TaintedAtRename uint64
	// STLPublicHits counts store-to-load forwards permitted openly because
	// every involved address was s-untainted.
	STLPublicHits uint64
}

// NewSTT builds an STT policy.
func NewSTT() *STT { return &STT{} }

// Attach implements pipeline.Policy.
func (t *STT) Attach(c *pipeline.Core) {
	t.core = c
	t.sTaint = make([]bool, c.PhysRegCount())
	t.win = newWindow(c)
	c.TickWrote = func() bool { return t.wrote }
}

// STainted reports a register's speculative taint (for tests).
func (t *STT) STainted(p pipeline.PhysReg) bool { return tainted(t.sTaint, p) }

// sTaintOf is STT's rule for an instruction's output: a load's is
// s-tainted until the load reaches the VP; immediates and link addresses
// are public; every other output is the OR of its inputs.
func (t *STT) sTaintOf(di *pipeline.DynInst) bool {
	switch {
	case di.IsLd:
		return !di.AtVP
	case di.Ins.Op == isa.MOVI, di.Ins.Op == isa.JAL:
		return false
	}
	return t.STainted(di.Src1) || t.STainted(di.Src2)
}

// OnRename implements pipeline.Policy: the output's s-taint starts at the
// rule's value.
func (t *STT) OnRename(di *pipeline.DynInst) {
	t.win.push(di)
	if di.Dst == pipeline.NoReg {
		return
	}
	t.sTaint[di.Dst] = t.sTaintOf(di)
	if t.sTaint[di.Dst] {
		t.Stats.TaintedAtRename++
	}
}

// OnSquash implements pipeline.Policy.
func (t *STT) OnSquash(di *pipeline.DynInst) {
	t.win.popTail(di)
	if di.Dst != pipeline.NoReg {
		t.sTaint[di.Dst] = false
	}
}

// OnRetire implements pipeline.Policy.
func (t *STT) OnRetire(di *pipeline.DynInst) { t.win.popHead(di) }

// OnVP implements pipeline.Policy: a load reaching the VP changes its
// rule's input, so its slot (and its consumers) are due for Tick.
func (t *STT) OnVP(di *pipeline.DynInst) {
	if di.IsLd && di.Dst != pipeline.NoReg {
		t.win.touch(di.Dst)
	}
}

// OnLoadComplete implements pipeline.Policy. A completing load's output
// keeps its s-taint until the load reaches the VP.
func (t *STT) OnLoadComplete(*pipeline.DynInst) {}

// MayExecuteMem implements pipeline.Policy: explicit channels are blocked
// by delaying transmitters with s-tainted address operands.
func (t *STT) MayExecuteMem(di *pipeline.DynInst) bool {
	return di.AtVP || !t.STainted(di.Src1)
}

// MayResolveCF implements pipeline.Policy: resolution-based implicit
// channels are blocked by delaying resolution effects until the predicate
// is s-untainted.
func (t *STT) MayResolveCF(di *pipeline.DynInst) bool {
	return di.AtVP || (!t.STainted(di.Src1) && !t.STainted(di.Src2))
}

// MaySquashOnViolation implements pipeline.Policy: the violation squash is
// an implicit branch over the involved addresses.
func (t *STT) MaySquashOnViolation(ld *pipeline.DynInst) bool {
	return violationSquashPublic(t.sTaint, ld, storeQueue(t.core))
}

// STLForwardPublic implements pipeline.STLQuery: the forwarding decision
// is public when the load's and all involved stores' addresses are
// s-untainted (STT's store-to-load forwarding exception).
func (t *STT) STLForwardPublic(st, ld *pipeline.DynInst) bool {
	live := st
	if st.Retired {
		live = nil
	}
	if !stlPublic(t.sTaint, st.Seq, live, ld, storeQueue(t.core)) {
		return false
	}
	t.Stats.STLPublicHits++
	return true
}

// Tick implements pipeline.Policy: STT's single-cycle transitive untaint,
// the paper's fast untaint hardware. It sweeps the slots whose rule inputs
// changed since the last cycle (new slots, loads that reached the VP,
// consumers of registers whose s-taint changed) oldest first, applying
// sTaintOf. Every consumer is younger than its producer, so a consumer
// dirtied by the sweep is still ahead of it, and one sweep reaches the
// transitive closure.
func (t *STT) Tick() {
	t.wrote = false
	for slot := t.win.oldest(t.win.dirty); slot >= 0; slot = t.win.oldest(t.win.dirty) {
		di := t.win.slots[slot]
		if want := t.sTaintOf(di); want != t.sTaint[di.Dst] {
			if !want {
				t.Stats.Untaints++
			}
			t.sTaint[di.Dst] = want
			t.win.touch(di.Dst)
			t.wrote = true
		}
		clearBit(t.win.dirty, slot)
	}
}

// String identifies the policy.
func (t *STT) String() string { return "STT" }
