package pipeline

import (
	"spt/internal/emu"
	"spt/internal/isa"
)

// opLatency returns the execution latency of a non-memory operation.
func (c *Core) opLatency(op isa.Op) uint64 {
	switch op {
	case isa.MUL:
		return c.Cfg.MulLatency
	case isa.DIV, isa.REM:
		return c.Cfg.DivLatency
	}
	return c.Cfg.ALULatency
}

// srcsReadyForIssue reports whether di can leave the RS. Stores only need
// their address operand (Src1); the data operand is consumed later by
// forwarding and retire.
func (c *Core) srcsReadyForIssue(di *DynInst) bool {
	if !di.rdy1 {
		if !c.RegReady(di.Src1) {
			return false
		}
		di.rdy1 = true
	}
	if di.IsSt {
		return true
	}
	if !di.rdy2 {
		if !c.RegReady(di.Src2) {
			return false
		}
		di.rdy2 = true
	}
	return true
}

// issue selects up to IssueWidth ready RS entries, oldest first, and starts
// their execution. Loads and stores compute their effective address here
// and then wait in the LSQ; the policy-gated memory access happens in
// memStage. The scan walks rsList — the age-ordered list of occupied RS
// slots — so a cycle costs O(RS occupancy), not O(ROB span). Entries whose
// ring slot was recycled (seq mismatch) or that left the RS via a squash
// (Dispatched cleared) are dropped here; the list is compacted in place.
func (c *Core) issue() {
	issued := 0
	w := 0
	for r := 0; r < len(c.rsList); r++ {
		e := c.rsList[r]
		di := e.di
		if di.Seq != e.seq || !di.Dispatched || di.Issued {
			continue // stale: squashed or slot recycled
		}
		if issued >= c.Cfg.IssueWidth {
			// Width exhausted: keep the rest of the list as-is.
			w += copy(c.rsList[w:], c.rsList[r:])
			break
		}
		if !c.srcsReadyForIssue(di) {
			if w != r {
				c.rsList[w] = e
			}
			w++
			continue
		}

		if di.IsLd || di.IsSt {
			// Address generation uses an LSU AGU; it does not contend with
			// the ALU pool in this model.
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "issue")
			}
			di.Issued = true
			di.Dispatched = false
			c.active = true
			c.rsCount--
			c.Stats.Issued++
			c.Stats.RSDelay.Observe(c.cycle - di.RenameCycle)
			di.EffAddr = c.prf[di.Src1] + uint64(di.Ins.Imm)
			di.AddrKnown = true
			issued++
			continue
		}

		// Find a free ALU. MUL is pipelined; DIV occupies its unit.
		slot := -1
		for i := range c.aluBusyUntil {
			if c.aluBusyUntil[i] <= c.cycle {
				slot = i
				break
			}
		}
		if slot < 0 {
			c.rsList[w] = e // no free unit: still waiting in the RS
			w++
			continue
		}
		lat := c.opLatency(di.Ins.Op)
		if di.Ins.Op == isa.DIV || di.Ins.Op == isa.REM {
			c.aluBusyUntil[slot] = c.cycle + lat // unpipelined
		} else {
			c.aluBusyUntil[slot] = c.cycle + 1
		}

		di.Issued = true
		di.Dispatched = false
		c.active = true
		c.rsCount--
		c.Stats.Issued++
		c.Stats.RSDelay.Observe(c.cycle - di.RenameCycle)
		c.execOutstanding++
		di.DoneCycle = c.cycle + lat
		c.computeResult(di)
		if c.Tracer != nil {
			c.Tracer.Event(c.cycle, di, "issue")
		}
		issued++
	}
	c.rsList = c.rsList[:w]
}

// computeResult evaluates di functionally. Results become architecturally
// visible (ready) at DoneCycle via completeExecution.
func (c *Core) computeResult(di *DynInst) {
	ins := di.Ins
	a := c.val(di.Src1)
	b := c.val(di.Src2)
	switch {
	case ins.IsCondBranch():
		di.ActualTaken = emu.BranchTaken(ins.Op, a, b)
		if di.ActualTaken {
			di.ActualTarget = di.PC + uint64(ins.Imm)
		} else {
			di.ActualTarget = di.PC + 1
		}
		di.OutcomeKnown = true
	case ins.Op == isa.JALR:
		di.ActualTaken = true
		di.ActualTarget = a + uint64(ins.Imm)
		di.OutcomeKnown = true
		di.Val = di.PC + 1
	case ins.Op == isa.MOV:
		di.Val = a
	case ins.Op == isa.MOVI:
		di.Val = uint64(ins.Imm)
	default:
		di.Val = emu.ALU(ins.Op, a, b, ins.Imm)
	}
}

func (c *Core) val(p PhysReg) uint64 {
	if p == NoReg {
		return 0
	}
	return c.prf[p]
}

// completeExecution retires results whose latency has elapsed: the value
// becomes visible in the PRF and dependents wake up. The ROB scan is gated
// on the count of issued-but-incomplete non-memory instructions and skips
// the prefix of entries it can never act on again (done, or handled by the
// memory queues below).
func (c *Core) completeExecution() {
	for c.execSkip < c.robLen {
		di := c.robAt(c.execSkip)
		if !di.Done && !di.IsLd && !di.IsSt {
			break
		}
		c.execSkip++
	}
	outstanding := c.execOutstanding
	robA, robB := c.robWindowFrom(c.execSkip)
robScan:
	for _, win := range [2][]DynInst{robA, robB} {
		for i := range win {
			if outstanding == 0 {
				break robScan
			}
			di := &win[i]
			if !di.Issued || di.Done || di.IsLd || di.IsSt {
				continue
			}
			outstanding--
			if di.DoneCycle > c.cycle {
				continue
			}
			di.Done = true
			c.active = true
			c.execOutstanding--
			if di.Dst != NoReg {
				c.prf[di.Dst] = di.Val
				c.prfReady[di.Dst] = true
			}
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "complete")
			}
		}
	}
	// Loads complete when their memory access finishes.
	for c.lqDoneSkip < c.lqLen && c.lqAt(c.lqDoneSkip).Done {
		c.lqDoneSkip++
	}
	lqA, lqB := c.lqWindowFrom(c.lqDoneSkip)
	for _, win := range [2][]*DynInst{lqA, lqB} {
		for _, di := range win {
			if !di.MemIssued || di.Done || di.DoneCycle > c.cycle {
				continue
			}
			di.Done = true
			c.active = true
			c.memIncomplete--
			if di.Dst != NoReg {
				c.prf[di.Dst] = di.Val
				c.prfReady[di.Dst] = true
			}
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "complete")
			}
			if c.Pol != nil {
				c.Pol.OnLoadComplete(di)
			}
		}
	}
	// Stores complete when translated and their data is ready.
	for c.sqDoneSkip < c.sqLen && c.sqAt(c.sqDoneSkip).Done {
		c.sqDoneSkip++
	}
	sqA, sqB := c.sqWindowFrom(c.sqDoneSkip)
	for _, win := range [2][]*DynInst{sqA, sqB} {
		for _, di := range win {
			if di.Done || !di.MemIssued || di.DoneCycle > c.cycle {
				continue
			}
			if !c.RegReady(di.Src2) {
				continue
			}
			di.Val = c.val(di.Src2)
			di.Done = true
			c.active = true
			c.memIncomplete--
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "complete")
			}
		}
	}
}

// resolveBranches applies resolution effects for executed control-flow
// instructions, oldest first, when the policy permits. A misprediction
// squashes younger instructions and redirects fetch (one squash per cycle).
// The scan is skipped entirely on cycles with no unresolved control flow.
func (c *Core) resolveBranches() {
	for c.cfSkip < c.robLen {
		di := c.robAt(c.cfSkip)
		if di.IsCF && !di.Resolved {
			break
		}
		c.cfSkip++
	}
	pending := c.cfUnresolved
	cfA, cfB := c.robWindowFrom(c.cfSkip)
	for _, win := range [2][]DynInst{cfA, cfB} {
		if pending == 0 {
			break
		}
		if c.resolveBranchWindow(win, &pending) {
			return
		}
	}
}

// resolveBranchWindow resolves branches within one contiguous ROB segment.
// It reports true when the cycle's resolution work must stop (in-order
// stall, policy delay, or a squash).
func (c *Core) resolveBranchWindow(win []DynInst, pending *int) bool {
	for i := range win {
		if *pending == 0 {
			return false
		}
		di := &win[i]
		if di.Squashed || !di.IsCF || di.Resolved {
			continue
		}
		(*pending)--
		if !di.OutcomeKnown {
			return true // resolve strictly in order
		}
		if c.Pol != nil && !c.Pol.MayResolveCF(di) {
			di.DelayedByPolicy = true
			c.Stats.ResolutionDelays++
			return true
		}
		// Train the predictor (resolution-time update keeps tainted data
		// out of predictor state, since the policy gate already passed).
		var misp bool
		if di.Ins.IsCondBranch() {
			misp = c.Pred.ResolveCond(&di.Cp, di.ActualTaken, di.ActualTarget)
		} else {
			misp = c.Pred.ResolveJump(&di.Cp, di.ActualTarget, di.Ins.Op == isa.JALR)
		}
		di.Resolved = true
		c.active = true
		c.cfUnresolved--
		di.Mispredicted = misp
		if c.Tracer != nil {
			stage := "resolve"
			if misp {
				stage = "mispredict"
			}
			c.Tracer.Event(c.cycle, di, stage)
		}
		c.Stats.BranchResolutions++
		if misp {
			c.Stats.BranchMispredicts++
			c.Pred.Recover(&di.Cp, di.ActualTaken)
			c.squashAfter(di.Seq)
			c.redirect(di.ActualTarget)
			c.squashedThisCycle = true
			return true
		}
	}
	return false
}
