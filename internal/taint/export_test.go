package taint

import (
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// NewLockstep wraps a tracking policy so that every cycle its event-driven
// untaint engine is checked against the per-cycle ROB rescan it replaced:
//   - SPT: in every untaint round (each fixpoint round for UntaintIdeal),
//     the candidate list equals the rescan's element for element, before
//     it is committed;
//   - STT: after Tick, the s-taint vector and the untaint count equal a
//     full recompute over the in-flight window;
//   - both: the policy's ROB mirror equals ROBAt(0..ROBLen-1).
//
// fail reports a mismatch. NewLockstep returns nil for a policy with no
// untaint engine (the unsafe baseline, the SecureBaseline).
func NewLockstep(p pipeline.Policy, fail func(format string, args ...any)) pipeline.Policy {
	switch p := p.(type) {
	case *SPT:
		if p.tracking() {
			return &sptLockstep{SPT: p, fail: fail}
		}
	case *STT:
		return &sttLockstep{STT: p, fail: fail}
	}
	return nil
}

// checkMirror compares a policy's ROB mirror with the core's ROB.
func checkMirror(w *window, c *pipeline.Core, fail func(string, ...any)) {
	if w.n != c.ROBLen() {
		fail("ROB mirror holds %d instructions, the ROB %d", w.n, c.ROBLen())
		return
	}
	for i := 0; i < w.n; i++ {
		slot := (w.head + i) % len(w.slots)
		if w.slots[slot] != c.ROBAt(i) {
			fail("ROB mirror entry %d is not ROBAt(%d) (seq %d)", slot, i, c.ROBAt(i).Seq)
			return
		}
	}
}

type sptLockstep struct {
	*SPT
	fail func(string, ...any)
	ref  []pendingUntaint
}

// Tick runs SPT.Tick's rounds with each round's candidates checked.
func (l *sptLockstep) Tick() {
	s := l.SPT
	checkMirror(&s.win, s.core, l.fail)
	width := s.cfg.BroadcastWidth
	if s.cfg.Method == UntaintIdeal {
		width = 0
	}
	for round := 0; ; round++ {
		l.ref = s.scanCandidates(l.ref[:0])
		got := s.candidates()
		if len(got) != len(l.ref) {
			l.fail("round %d: %d candidates, rescan has %d:\n got %v\nwant %v", round, len(got), len(l.ref), got, l.ref)
			return
		}
		for i := range got {
			if got[i] != l.ref[i] {
				l.fail("round %d: candidate %d is %+v, rescan has %+v", round, i, got[i], l.ref[i])
				return
			}
		}
		if s.commit(got, width) == 0 || s.cfg.Method != UntaintIdeal {
			break
		}
	}
	s.recordCycle()
}

// scanCandidates is the per-cycle rescan: the pending VP declassifications,
// the register rules applied to every in-flight instruction oldest first,
// then the store-to-load forwarding pairs.
func (s *SPT) scanCandidates(out []pendingUntaint) []pendingUntaint {
	out = append(out, s.pendingVP...)
	for i := 0; i < s.core.ROBLen(); i++ {
		di := s.core.ROBAt(i)
		// Every register rule needs a destination register: the forward
		// rule untaints it, the backward rules require it untainted.
		if di.Squashed || di.Dst == pipeline.NoReg {
			continue
		}
		out = s.ruleCandidates(di, out)
	}
	return s.stlfCandidates(out)
}

// ruleCandidates applies the forward and backward register rules to one
// in-flight instruction (§6.6), independently of SPT.rule.
func (s *SPT) ruleCandidates(di *pipeline.DynInst, out []pendingUntaint) []pendingUntaint {
	// Forward: output of a register-to-register operation with all inputs
	// untainted. Loads are excluded (output depends on memory, §6.6);
	// rename-time public outputs are already untainted.
	if di.Dst != pipeline.NoReg && !di.IsLd && s.taint[di.Dst] &&
		!s.Tainted(di.Src1) && !s.Tainted(di.Src2) {
		out = append(out, pendingUntaint{reg: di.Dst, seq: di.Seq, isDst: true, kind: EvForward})
	}

	if s.cfg.Method < UntaintBwd {
		return out
	}

	// Backward rules require the instruction's output to be untainted.
	if di.Dst == pipeline.NoReg || s.taint[di.Dst] {
		return out
	}
	switch di.Ins.Op {
	case isa.MOV:
		if s.Tainted(di.Src1) {
			out = append(out, pendingUntaint{reg: di.Src1, seq: di.Seq, kind: EvBackward})
		}
	case isa.ADDI, isa.XORI:
		// Invertible with a public immediate.
		if s.Tainted(di.Src1) {
			out = append(out, pendingUntaint{reg: di.Src1, seq: di.Seq, kind: EvBackward})
		}
	case isa.ADD, isa.SUB, isa.XOR:
		// Invertible when all but one input is public.
		t1, t2 := s.Tainted(di.Src1), s.Tainted(di.Src2)
		if t1 && !t2 {
			out = append(out, pendingUntaint{reg: di.Src1, seq: di.Seq, kind: EvBackward})
		} else if t2 && !t1 {
			out = append(out, pendingUntaint{reg: di.Src2, seq: di.Seq, kind: EvBackward})
		}
	}
	return out
}

type sttLockstep struct {
	*STT
	fail func(string, ...any)
	ref  []bool
}

// Tick runs STT.Tick and checks it against a full recompute.
func (l *sttLockstep) Tick() {
	t := l.STT
	checkMirror(&t.win, t.core, l.fail)
	l.ref = append(l.ref[:0], t.sTaint...)
	untaints := t.Stats.Untaints + recompute(t.core, l.ref)
	t.Tick()
	if t.Stats.Untaints != untaints {
		l.fail("Tick counted %d untaints, the recompute %d", t.Stats.Untaints, untaints)
	}
	for p := range l.ref {
		if t.sTaint[p] != l.ref[p] {
			l.fail("p%d s-taint %v after Tick, recompute has %v", p, t.sTaint[p], l.ref[p])
			return
		}
	}
}

// recompute is STT's full recompute over the in-flight window (oldest
// first) on the s-taint vector sTaint: a load's output is s-tainted iff the
// load has not reached the VP; every other output is the OR of its inputs.
// It returns the number of outputs it untainted.
func recompute(c *pipeline.Core, sTaint []bool) (untaints uint64) {
	for i := 0; i < c.ROBLen(); i++ {
		di := c.ROBAt(i)
		if di.Dst == pipeline.NoReg || di.Squashed {
			continue
		}
		var want bool
		op := di.Ins.Op
		switch {
		case di.IsLd:
			want = !di.AtVP
		case op == isa.MOVI, op == isa.JAL:
			want = false
		default:
			want = tainted(sTaint, di.Src1) || tainted(sTaint, di.Src2)
		}
		if sTaint[di.Dst] && !want {
			untaints++
		}
		sTaint[di.Dst] = want
	}
	return untaints
}
