package pipeline

import "spt/internal/isa"

// renameDispatch moves instructions from the fetch buffer through rename
// into the ROB, RS, and LSQ, stopping at any structural hazard. ROB entries
// are written in place into the ring slot — the steady-state loop performs
// no per-instruction allocation.
func (c *Core) renameDispatch() {
	for n := 0; n < c.Cfg.RenameWidth; n++ {
		if c.fbLen == 0 {
			return
		}
		fe := c.fbAt(0)
		if fe.readyCycle > c.cycle {
			return
		}
		if c.robLen >= c.Cfg.ROBSize {
			return
		}
		ins := fe.ins
		needsRS := opNeedsExecution(ins)
		if needsRS && c.rsCount >= c.Cfg.RSSize {
			return
		}
		if ins.IsLoad() && c.lqLen >= c.Cfg.LQSize {
			return
		}
		if ins.IsStore() && c.sqLen >= c.Cfg.SQSize {
			return
		}
		if ins.HasDest() && len(c.freeList) == 0 {
			return
		}
		// fe stays readable after the pop: the slot is only recycled by the
		// fetch stage, which runs after rename within the cycle.
		c.fbPopHead()
		c.active = true

		c.seq++
		c.Stats.Renamed++
		di := c.robPush()
		di.Seq = c.seq
		di.RenameCycle = c.cycle
		di.PC = fe.pc
		di.Ins = ins
		di.IsLd = ins.IsLoad()
		di.IsSt = ins.IsStore()
		di.MemSz = uint64(ins.MemSize())
		di.Src1, di.Src2, di.Dst, di.OldDst = NoReg, NoReg, NoReg, NoReg
		di.IsCF = ins.IsControlFlow()
		di.Cp = fe.cp
		di.HasCp = fe.hasCp
		di.HistAt = fe.histAt
		di.RasAt = fe.rasAt

		// Rename sources.
		var srcs [2]isa.Reg
		list := ins.SrcRegs(srcs[:0])
		if len(list) > 0 {
			di.Src1 = c.rat[list[0]]
		}
		if len(list) > 1 {
			di.Src2 = c.rat[list[1]]
		}

		// Rename destination.
		if ins.HasDest() {
			p := c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			di.OldDst = c.rat[ins.Rd]
			c.rat[ins.Rd] = p
			di.Dst = p
			c.prfReady[p] = false
		}

		// Instructions with no execution step complete at dispatch.
		switch ins.Op {
		case isa.NOP, isa.HALT:
			di.Done = true
			di.DoneCycle = c.cycle
		case isa.JAL:
			// Direct jump: target was known at fetch, the link value is
			// PC+1. No execution or resolution effects are needed.
			if di.Dst != NoReg {
				c.prf[di.Dst] = fe.pc + 1
				c.prfReady[di.Dst] = true
			}
			di.Done = true
			di.DoneCycle = c.cycle
			di.OutcomeKnown = true
			di.ActualTaken = true
			di.ActualTarget = fe.pc + uint64(ins.Imm)
			di.Resolved = true
		}

		if needsRS {
			di.Dispatched = true
			c.rsCount++
			c.rsList = append(c.rsList, rsRef{di: di, seq: di.Seq})
		}
		if di.IsCF && !di.Resolved {
			c.cfUnresolved++
		}
		if di.IsLd || di.IsSt {
			c.memIncomplete++
		}
		if c.Tracer != nil {
			c.Tracer.Event(c.cycle, di, "rename")
		}
		if di.IsLd {
			c.lqPush(di)
		}
		if di.IsSt {
			c.sqPush(di)
		}
		if c.Pol != nil {
			c.Pol.OnRename(di)
		}
	}
}

// opNeedsExecution reports whether the op occupies an RS slot and an
// execution unit.
func opNeedsExecution(ins isa.Instruction) bool {
	switch ins.Op {
	case isa.NOP, isa.HALT, isa.JAL:
		return false
	}
	return true
}
