package pipeline

// squashAfter removes every instruction younger than seq (seq survives).
func (c *Core) squashAfter(seq uint64) { c.squashFrom(seq + 1) }

// squashFrom removes every instruction with sequence number >= seq from the
// window, restoring the RAT and free list by walking the squashed region
// youngest-to-oldest. The front end is NOT redirected here; callers follow
// up with redirect().
func (c *Core) squashFrom(seq uint64) {
	cut := c.robLen
	for cut > 0 && c.robAt(cut-1).Seq >= seq {
		cut--
	}
	if cut == c.robLen {
		// Nothing in the ROB to squash; still drop the fetch buffer, which
		// only ever holds instructions younger than anything renamed.
		c.fbHead, c.fbLen = 0, 0
		c.Stats.Squashes++
		c.Stats.SquashDepth.Observe(0)
		return
	}
	c.Stats.SquashDepth.Observe(uint64(c.robLen - cut))
	for j := c.robLen - 1; j >= cut; j-- {
		di := c.robAt(j)
		di.Squashed = true
		if c.Tracer != nil {
			c.Tracer.Event(c.cycle, di, "squash")
		}
		if c.Pol != nil {
			c.Pol.OnSquash(di)
		}
		if di.Dispatched {
			c.rsCount--
			di.Dispatched = false
		}
		if di.IsCF && !di.Resolved {
			c.cfUnresolved--
		}
		if di.IsLd || di.IsSt {
			if !di.Done {
				c.memIncomplete--
			}
		} else if di.Issued && !di.Done {
			c.execOutstanding--
		}
		if di.Violation {
			c.violPending--
		}
		if di.Dst != NoReg {
			c.rat[di.Ins.Rd] = di.OldDst
			c.freeList = append(c.freeList, di.Dst)
		}
		c.Stats.SquashedInstrs++
	}
	c.robLen = cut
	for c.lqLen > 0 && c.lqAt(c.lqLen-1).Seq >= seq {
		c.lqLen--
		// Clear the vacated tail slot so no stale pointer lingers.
		j := c.lqHead + c.lqLen
		if j >= len(c.lq) {
			j -= len(c.lq)
		}
		c.lq[j] = nil
	}
	for c.sqLen > 0 && c.sqAt(c.sqLen-1).Seq >= seq {
		c.sqLen--
		j := c.sqHead + c.sqLen
		if j >= len(c.sq) {
			j -= len(c.sq)
		}
		c.sq[j] = nil
	}
	c.fbHead, c.fbLen = 0, 0
	// The truncated tails may have included skipped-prefix entries; clamp
	// the scan-skip indexes to the surviving lengths.
	c.execSkip = min(c.execSkip, c.robLen)
	c.cfSkip = min(c.cfSkip, c.robLen)
	c.vpSkip = min(c.vpSkip, c.robLen)
	c.lqMemSkip = min(c.lqMemSkip, c.lqLen)
	c.lqDoneSkip = min(c.lqDoneSkip, c.lqLen)
	c.sqMemSkip = min(c.sqMemSkip, c.sqLen)
	c.sqDoneSkip = min(c.sqDoneSkip, c.sqLen)
	c.Stats.Squashes++
}

// updateVP advances the visibility point for the configured attack model
// and notifies the policy of every instruction crossing it
// (declassification of transmitter/branch operands happens there).
func (c *Core) updateVP() {
	frontier := c.robLen - 1
	switch c.Cfg.Model {
	case Spectre:
		// An instruction reaches the VP when all older control-flow
		// instructions have resolved: everything up to and including the
		// oldest unresolved control-flow instruction qualifies. When no
		// unresolved control flow is in flight the whole window qualifies
		// without a scan.
		if c.cfUnresolved > 0 {
			for i := 0; i < c.robLen; i++ {
				di := c.robAt(i)
				if di.IsCF && !di.Resolved {
					frontier = i
					break
				}
			}
		}
	case Futuristic:
		// An instruction reaches the VP when it can no longer be squashed.
		// Squash shadows are cast by: unresolved control-flow instructions
		// (mispredict squash), incomplete loads/stores (they may fault —
		// matching the paper's x86 machine, where memory instructions can
		// raise exceptions until they complete; an unknown store address
		// also threatens younger loads with a violation squash), and loads
		// with a pending violation. ALU operations cannot fault in µRISC
		// and cast no shadow, so the VP runs ahead of arithmetic latency.
		// The counters say whether any shadow caster exists at all; the
		// scan for the oldest one runs only when one does.
		if c.cfUnresolved > 0 || c.memIncomplete > 0 || c.violPending > 0 {
			for i := 0; i < c.robLen; i++ {
				di := c.robAt(i)
				shadowCaster := (di.IsCF && !di.Resolved) ||
					((di.IsLd || di.IsSt) && !di.Done) ||
					di.Violation
				if shadowCaster {
					frontier = i
					break
				}
			}
		}
	}
	// AtVP spreads as a contiguous prefix: entries before vpSkip already
	// crossed the visibility point in an earlier cycle.
	for i := c.vpSkip; i <= frontier && i < c.robLen; i++ {
		di := c.robAt(i)
		if !di.AtVP {
			di.AtVP = true
			c.active = true
			c.Stats.VPCrossings++
			c.Stats.VPDistance.Observe(c.cycle - di.RenameCycle)
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "vp")
			}
			if c.Pol != nil {
				c.Pol.OnVP(di)
			}
		}
		c.vpSkip = i + 1
	}
}
