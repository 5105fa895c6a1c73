package taint

import (
	"fmt"
	"math/bits"

	"spt/internal/isa"
	"spt/internal/pipeline"
)

// Method selects the untaint machinery enabled in an SPT configuration
// (paper Table 2).
type Method uint8

const (
	// UntaintNone disables all untainting: transmitters execute and
	// branches resolve only at the visibility point. This is the paper's
	// SecureBaseline (artifact flag --untaint-method=none).
	UntaintNone Method = iota
	// UntaintFwd adds VP declassification, rename-time public outputs, and
	// forward propagation.
	UntaintFwd
	// UntaintBwd adds the backward (input) untaint rules and backward
	// store-to-load propagation.
	UntaintBwd
	// UntaintIdeal applies the rules to fixpoint every cycle with
	// unbounded broadcast width.
	UntaintIdeal
)

func (m Method) String() string {
	switch m {
	case UntaintNone:
		return "none"
	case UntaintFwd:
		return "fwd"
	case UntaintBwd:
		return "bwd"
	case UntaintIdeal:
		return "ideal"
	}
	return "method(?)"
}

// Protection selects what happens to a transmitter with tainted operands
// (paper §6.3: SPT composes with any comprehensive protection policy).
type Protection uint8

const (
	// DelayExecution holds the transmitter until its operands untaint or
	// it reaches the visibility point (the paper's evaluated policy).
	DelayExecution Protection = iota
	// ObliviousExecution executes the transmitter with no speculative
	// cache/TLB state change and a fixed latency, in the spirit of SDO
	// (Yu et al., ISCA'20).
	ObliviousExecution
)

func (p Protection) String() string {
	if p == ObliviousExecution {
		return "oblivious"
	}
	return "delay"
}

// SPTConfig parameterizes the SPT policy.
type SPTConfig struct {
	Method Method
	Shadow ShadowMode
	// BroadcastWidth bounds register untaint events applied per cycle
	// (paper §7.3/§9.4; the evaluated design uses 3). <= 0 means
	// unbounded. UntaintIdeal ignores it.
	BroadcastWidth int
	// Protect selects the transmitter protection policy.
	Protect Protection
	// ObliviousLatencyCycles is the fixed latency of an oblivious memory
	// access. The default (when zero) is 180 cycles: a full L1-L2-L3-DRAM
	// round trip, so the fixed latency can always cover where the data
	// actually lives.
	ObliviousLatencyCycles uint64
}

// DefaultSPTConfig returns the paper's full SPT design:
// SPT{Bwd, ShadowL1} with untaint broadcast width 3.
func DefaultSPTConfig() SPTConfig {
	return SPTConfig{Method: UntaintBwd, Shadow: ShadowL1, BroadcastWidth: 3}
}

// SPT is the Speculative Privacy Tracking policy. All data (architectural
// registers and memory) starts tainted; taint is removed only when the
// attacker could infer the value from non-speculatively leaked operands.
type SPT struct {
	cfg  SPTConfig
	core *pipeline.Core

	// taint is per physical register; true = tainted (secret so far).
	taint []bool

	// pendingVP holds registers declassified by a VP crossing, waiting for
	// an untaint broadcast slot. Entries carry the declassifying
	// instruction's sequence number for age-priority.
	pendingVP []pendingUntaint

	// win mirrors the ROB; hasCand marks the slots whose register rule
	// yields a candidate, cached in cand at the slot's last evaluation.
	win     window
	hasCand []uint64
	cand    []pendingUntaint

	shadow *shadow

	// retiredStoreData remembers the data-operand taint of retired stores
	// that may still be the forwarding source of an in-flight load (their
	// physical registers may be recycled after retirement).
	retiredStoreData map[uint64]bool // store seq -> data taint at retire

	// cycleUntaints counts registers untainted in the current cycle, for
	// the Figure 9 histogram; untainted records whether the last cycle's
	// count was nonzero, the core's TickWrote answer.
	cycleUntaints int
	untainted     bool

	// candBuf and seenReg are per-cycle scratch reused across Tick calls so
	// the steady-state untaint pass performs no allocation.
	candBuf []pendingUntaint
	seenReg []bool

	Stats Stats
}

type pendingUntaint struct {
	reg   pipeline.PhysReg
	seq   uint64 // age of the instruction causing the untaint
	isDst bool
	kind  EventKind
}

// NewSPT builds an SPT policy (or the SecureBaseline, for UntaintNone).
func NewSPT(cfg SPTConfig) *SPT {
	return &SPT{cfg: cfg, retiredStoreData: make(map[uint64]bool)}
}

// Attach implements pipeline.Policy.
func (s *SPT) Attach(c *pipeline.Core) {
	s.core = c
	s.taint = make([]bool, c.PhysRegCount())
	// All architectural state starts tainted (secret until leaked), except
	// the hardwired zero register, whose value is public by construction.
	for p := 1; p < isa.NumRegs; p++ {
		s.taint[p] = true
	}
	s.seenReg = make([]bool, c.PhysRegCount())
	// Tick only ever untaints, and every untaint of the cycle, whichever
	// round applied it, is counted in cycleUntaints.
	c.TickWrote = func() bool { return s.untainted }
	s.shadow = newShadow(s.cfg.Shadow)
	if s.cfg.Shadow == ShadowL1 {
		c.Hier.L1D.OnFill = s.shadow.onFill
		c.Hier.L1D.OnEvict = s.shadow.onEvict
	}
	if s.tracking() {
		s.win = newWindow(c)
		s.hasCand = make([]uint64, s.win.words)
		s.cand = make([]pendingUntaint, c.Cfg.ROBSize)
	}
}

// Tainted reports a physical register's taint (for tests).
func (s *SPT) Tainted(p pipeline.PhysReg) bool { return tainted(s.taint, p) }

// tainted reads a taint vector; the absent register is public.
func tainted(taint []bool, p pipeline.PhysReg) bool {
	return p != pipeline.NoReg && taint[p]
}

func (s *SPT) tracking() bool { return s.cfg.Method != UntaintNone }

// OnRename implements pipeline.Policy: compute the initial taint of the
// instruction's output (§6.3, §6.5).
func (s *SPT) OnRename(di *pipeline.DynInst) {
	if !s.tracking() {
		return
	}
	s.win.push(di)
	if di.Dst == pipeline.NoReg {
		return
	}
	switch {
	case di.IsLd:
		// Loads are conservatively tainted at rename; the data's taint is
		// not known yet (§6.3).
		s.taint[di.Dst] = true
	case di.Ins.Op == isa.MOVI, di.Ins.Op == isa.JAL, di.Ins.Op == isa.JALR:
		// Output determined only by ROB contents: immediates and link
		// addresses are public (§6.5).
		s.taint[di.Dst] = false
		s.Stats.Events[EvLoadImm]++
	default:
		s.taint[di.Dst] = s.Tainted(di.Src1) || s.Tainted(di.Src2)
	}
	if s.taint[di.Dst] {
		s.Stats.TaintedAtRename++
	}
}

// leakedOperands appends the operand registers di's execution leaks:
// addresses for loads/stores, predicates for branches and indirect jumps.
func leakedOperands(di *pipeline.DynInst, dst []pipeline.PhysReg) []pipeline.PhysReg {
	switch {
	case di.IsLd || di.IsSt:
		dst = append(dst, di.Src1)
	case di.Ins.IsCondBranch():
		dst = append(dst, di.Src1, di.Src2)
	case di.Ins.Op == isa.JALR:
		dst = append(dst, di.Src1)
	}
	return dst
}

// OnVP implements pipeline.Policy: a transmitter or branch crossing the
// visibility point non-speculatively leaks its operands, declassifying
// them (§6.6).
func (s *SPT) OnVP(di *pipeline.DynInst) {
	if !s.tracking() {
		return
	}
	var buf [2]pipeline.PhysReg
	for _, p := range leakedOperands(di, buf[:0]) {
		if p != pipeline.NoReg && s.taint[p] {
			s.pendingVP = append(s.pendingVP, pendingUntaint{
				reg: p, seq: di.Seq, isDst: false, kind: EvVPDeclass,
			})
		}
	}
}

// OnSquash implements pipeline.Policy: squashed instructions release their
// destination registers, so pending untaints for them must be dropped.
func (s *SPT) OnSquash(di *pipeline.DynInst) {
	if !s.tracking() {
		return
	}
	clearBit(s.hasCand, s.win.popTail(di))
	if di.Dst != pipeline.NoReg {
		s.purgePending(di.Dst)
	}
}

// OnRetire implements pipeline.Policy: stores write their data's taint
// into the shadow structure (§6.8 rule 1); the retiring instruction's
// OldDst register is freed, so pending untaints on it are dropped.
func (s *SPT) OnRetire(di *pipeline.DynInst) {
	if !s.tracking() {
		return
	}
	clearBit(s.hasCand, s.win.popHead(di))
	if di.OldDst != pipeline.NoReg && di.Dst != pipeline.NoReg {
		s.purgePending(di.OldDst)
	}
	if di.IsSt {
		dataTaint := s.Tainted(di.Src2)
		s.retiredStoreData[di.Seq] = dataTaint
		if s.shadow.setRange(di.EffAddr, int(di.MemSz), dataTaint) {
			s.Stats.MemUntaints++
		}
	}
	// Garbage-collect forwarding snapshots no load can reference anymore.
	if len(s.retiredStoreData) > 4*s.core.Cfg.LQSize {
		oldest := di.Seq
		for i := 0; i < s.core.LQLen(); i++ {
			if ld := s.core.LQAt(i); ld.Seq < oldest {
				oldest = ld.Seq
			}
		}
		for seq := range s.retiredStoreData {
			if seq < oldest {
				delete(s.retiredStoreData, seq)
			}
		}
	}
}

func (s *SPT) purgePending(p pipeline.PhysReg) {
	out := s.pendingVP[:0]
	for _, pu := range s.pendingVP {
		if pu.reg != p {
			out = append(out, pu)
		}
	}
	s.pendingVP = out
}

// OnLoadComplete implements pipeline.Policy: a load's output taint is set
// from the taint of the data it read (§6.8 rule on loads). Forwarded loads
// stay tainted until STLPublic permits propagation (§6.7).
func (s *SPT) OnLoadComplete(di *pipeline.DynInst) {
	if !s.tracking() || di.Dst == pipeline.NoReg {
		return
	}
	if di.FwdStore != nil {
		return // handled by the STLPublic-gated propagation in Tick
	}
	if !s.taint[di.Dst] {
		// Output was already declassified (only possible past the VP, per
		// the paper's Lemma 1): the read bytes become public (§6.8 rule 2).
		if s.shadow.setRange(di.EffAddr, int(di.MemSz), false) {
			s.Stats.MemUntaints++
		}
		return
	}
	if !s.shadow.rangeTainted(di.EffAddr, int(di.MemSz)) {
		// Untainted bytes: the output becomes public. This rides the
		// existing writeback broadcast, not the untaint broadcast.
		s.taint[di.Dst] = false
		s.win.touch(di.Dst)
		s.Stats.Events[EvShadowLoad]++
		s.cycleUntaints++
	}
}

// MayExecuteMem implements pipeline.Policy (§6.3: delayed execution).
func (s *SPT) MayExecuteMem(di *pipeline.DynInst) bool {
	if di.AtVP {
		return true
	}
	if !s.tracking() {
		return false // SecureBaseline: wait for the VP
	}
	return !s.Tainted(di.Src1)
}

// MayResolveCF implements pipeline.Policy: resolution effects wait until
// the predicate is public (§6.4).
func (s *SPT) MayResolveCF(di *pipeline.DynInst) bool {
	if di.AtVP {
		return true
	}
	if !s.tracking() {
		return false
	}
	return !s.Tainted(di.Src1) && !s.Tainted(di.Src2)
}

// MaySquashOnViolation implements pipeline.Policy: the violation squash is
// an implicit branch over the load's and the involved stores' addresses
// (§6.7, footnote 4).
func (s *SPT) MaySquashOnViolation(ld *pipeline.DynInst) bool {
	if !s.tracking() {
		return ld.AtVP
	}
	return violationSquashPublic(s.taint, ld, storeQueue(s.core))
}

// cycleUntaints counts registers untainted in the current cycle for the
// Figure 9 histogram.
func (s *SPT) recordCycle() {
	n := s.cycleUntaints
	s.cycleUntaints = 0
	s.untainted = n > 0
	if n == 0 {
		return
	}
	s.Stats.UntaintingCycles++
	if n > 10 {
		n = 10
	}
	s.Stats.UntaintHist[n-1]++
}

// Tick implements pipeline.Policy: the per-cycle untaint propagation
// (paper §7.3's two-phase scheme). Phase one evaluates the rules against
// the cycle-start taint state; phase two commits at most BroadcastWidth
// newly untainted registers, oldest instruction first, destinations before
// sources. UntaintIdeal instead iterates to fixpoint.
func (s *SPT) Tick() {
	if !s.tracking() {
		return
	}
	if s.cfg.Method == UntaintIdeal {
		for s.commit(s.candidates(), 0) > 0 {
		}
	} else {
		s.commit(s.candidates(), s.cfg.BroadcastWidth)
	}
	s.recordCycle()
}

// candidates gathers all registers the rules can untaint, evaluated
// against the current taint state: the pending VP declassifications, the
// register-rule candidates of the in-flight window oldest first, then the
// store-to-load forwarding candidates. Only slots marked dirty since their
// last evaluation are re-evaluated (see window). The returned slice aliases
// a scratch buffer reused across cycles; it is only valid until the next
// call.
func (s *SPT) candidates() []pendingUntaint {
	s.evaluateDirty()
	out := append(s.candBuf[:0], s.pendingVP...)
	for _, seg := range [2][2]int{{s.win.head, len(s.win.slots)}, {0, s.win.head}} {
		for slot := nextBit(s.hasCand, seg[0], seg[1]); slot >= 0; slot = nextBit(s.hasCand, slot+1, seg[1]) {
			out = append(out, s.cand[slot])
		}
	}
	out = s.stlfCandidates(out)
	s.candBuf = out[:0]
	return out
}

// evaluateDirty re-applies the register rules to every dirty slot and
// caches the result.
func (s *SPT) evaluateDirty() {
	for i, word := range s.win.dirty {
		s.win.dirty[i] = 0
		for ; word != 0; word &= word - 1 {
			slot := i<<6 + bits.TrailingZeros64(word)
			if c, ok := s.rule(s.win.slots[slot]); ok {
				s.cand[slot] = c
				setBit(s.hasCand, slot)
			} else {
				clearBit(s.hasCand, slot)
			}
		}
	}
}

// rule applies the forward and backward register rules to one in-flight
// instruction with a destination register (§6.6). At most one applies:
// the forward rule needs the output tainted, the backward rules need it
// untainted.
func (s *SPT) rule(di *pipeline.DynInst) (pendingUntaint, bool) {
	if s.taint[di.Dst] {
		// Forward: output of a register-to-register operation with all
		// inputs untainted. Loads are excluded (output depends on memory,
		// §6.6); rename-time public outputs are already untainted.
		if !di.IsLd && !s.Tainted(di.Src1) && !s.Tainted(di.Src2) {
			return pendingUntaint{reg: di.Dst, seq: di.Seq, isDst: true, kind: EvForward}, true
		}
		return pendingUntaint{}, false
	}
	if s.cfg.Method < UntaintBwd {
		return pendingUntaint{}, false
	}
	// Backward: the output is untainted.
	src := pipeline.NoReg
	switch di.Ins.Op {
	case isa.MOV, isa.ADDI, isa.XORI:
		// A copy, or invertible with a public immediate.
		if s.Tainted(di.Src1) {
			src = di.Src1
		}
	case isa.ADD, isa.SUB, isa.XOR:
		// Invertible when all but one input is public.
		t1, t2 := s.Tainted(di.Src1), s.Tainted(di.Src2)
		if t1 && !t2 {
			src = di.Src1
		} else if t2 && !t1 {
			src = di.Src2
		}
	}
	if src == pipeline.NoReg {
		return pendingUntaint{}, false
	}
	return pendingUntaint{reg: src, seq: di.Seq, kind: EvBackward}, true
}

// stlfCandidates propagates untaint across store-to-load forwarding pairs
// whose implicit branch has become public (§6.7).
func (s *SPT) stlfCandidates(out []pendingUntaint) []pendingUntaint {
	sq := storeQueue(s.core)
	older, younger := s.core.LQWindow()
	out = s.stlfWindow(older, sq, out)
	return s.stlfWindow(younger, sq, out)
}

func (s *SPT) stlfWindow(win []*pipeline.DynInst, sq [2][]*pipeline.DynInst, out []pendingUntaint) []pendingUntaint {
	for _, ld := range win {
		if ld.FwdStore == nil || !ld.Done || ld.Dst == pipeline.NoReg {
			continue
		}
		// The forwarding source is consulted through the seq-validated
		// reference: once the store retires (or its ring slot is recycled),
		// only its sequence number and the retiredStoreData snapshot remain.
		var st *pipeline.DynInst
		if ld.FwdLive() {
			st = ld.FwdStore
		}
		if !stlPublic(s.taint, ld.FwdSeq, st, ld, sq) {
			continue
		}
		stData, stLive := s.storeDataTaint(ld.FwdSeq, st)
		if s.taint[ld.Dst] && !stData {
			// Forward: the store's public data is the load's value.
			out = append(out, pendingUntaint{reg: ld.Dst, seq: ld.Seq, isDst: true, kind: EvSTLForward})
		}
		if s.cfg.Method >= UntaintBwd && !s.taint[ld.Dst] && stData && stLive {
			// Backward: the load's public output is the store's data.
			out = append(out, pendingUntaint{reg: st.Src2, seq: st.Seq, kind: EvSTLBackward})
		}
	}
	return out
}

// storeDataTaint reads a store's data-operand taint. st is the in-flight
// store, or nil if it has retired; the retired path falls back to the
// snapshot taken at retirement (live=false).
func (s *SPT) storeDataTaint(stSeq uint64, st *pipeline.DynInst) (tainted, live bool) {
	if st == nil {
		t, ok := s.retiredStoreData[stSeq]
		if !ok {
			return true, false
		}
		return t, false
	}
	return s.Tainted(st.Src2), true
}

// STLForwardPublic implements pipeline.STLQuery: forwarding may happen
// openly when the STLPublic condition already holds at execution time
// (the paper's exception in §6.7, in which the load skips the cache).
// Callers pass a live, in-SQ store.
func (s *SPT) STLForwardPublic(st, ld *pipeline.DynInst) bool {
	var public bool
	if !s.tracking() {
		// SecureBaseline: both ends must be non-speculative.
		public = ld.AtVP && (st.Retired || st.AtVP)
	} else {
		public = stlPublic(s.taint, st.Seq, st, ld, storeQueue(s.core))
	}
	if public {
		s.Stats.STLPublicHits++
	}
	return public
}

// commit applies up to width untaints (0 = unbounded) in priority order:
// older instructions first, destinations before sources. It returns the
// number of registers actually untainted.
func (s *SPT) commit(cands []pendingUntaint, width int) int {
	if len(cands) == 0 {
		return 0
	}
	// Stable selection without a full sort: selection of the best W.
	sortCandidates(cands)
	applied := 0
	// seenReg is scratch reused across cycles; every entry marked here is
	// cleared before returning (all marked registers appear in cands).
	seen := s.seenReg
	for _, cu := range cands {
		if seen[cu.reg] || !s.taint[cu.reg] {
			seen[cu.reg] = true
			continue
		}
		if width > 0 && applied >= width {
			s.Stats.BroadcastDeferred++
			continue
		}
		seen[cu.reg] = true
		s.taint[cu.reg] = false
		s.win.touch(cu.reg)
		s.Stats.Events[cu.kind]++
		s.cycleUntaints++
		applied++
		s.removePendingVP(cu.reg)
	}
	for _, cu := range cands {
		seen[cu.reg] = false
	}
	return applied
}

func (s *SPT) removePendingVP(p pipeline.PhysReg) {
	for i, pu := range s.pendingVP {
		if pu.reg == p {
			s.pendingVP = append(s.pendingVP[:i], s.pendingVP[i+1:]...)
			return
		}
	}
}

// sortCandidates orders by (seq, dst-before-src) with insertion sort: the
// candidate lists are small and mostly ordered already.
func sortCandidates(c []pendingUntaint) {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && less(c[j], c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

func less(a, b pendingUntaint) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.isDst && !b.isDst
}

// ObliviousLatency implements pipeline.ObliviousPolicy: when configured
// for oblivious execution, blocked transmitters run with a fixed latency
// instead of waiting.
func (s *SPT) ObliviousLatency(di *pipeline.DynInst) (uint64, bool) {
	if s.cfg.Protect != ObliviousExecution {
		return 0, false
	}
	if di.IsSt {
		// Store execution only translates; obliviously skipping the TLB
		// lookup costs one cycle.
		return 1, true
	}
	lat := s.cfg.ObliviousLatencyCycles
	if lat == 0 {
		lat = 180
	}
	return lat, true
}

// String describes the configuration (for logs and result tables).
func (s *SPT) String() string {
	if !s.tracking() {
		return "SecureBaseline"
	}
	if s.cfg.Protect == ObliviousExecution {
		return fmt.Sprintf("SPT{%s,%s,w=%d,oblivious}", s.cfg.Method, s.cfg.Shadow, s.cfg.BroadcastWidth)
	}
	return fmt.Sprintf("SPT{%s,%s,w=%d}", s.cfg.Method, s.cfg.Shadow, s.cfg.BroadcastWidth)
}
