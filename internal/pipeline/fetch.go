package pipeline

import "spt/internal/isa"

// fbAt returns the i-th oldest fetch-buffer entry (0 = next to rename).
// Entries live in a fixed ring; a popped slot stays readable until fetch
// pushes into it again, which cannot happen before the next fetch stage.
func (c *Core) fbAt(i int) *fetchEntry {
	j := c.fbHead + i
	if j >= len(c.fetchBuf) {
		j -= len(c.fetchBuf)
	}
	return &c.fetchBuf[j]
}

// fbPush claims and zeroes the ring slot behind the youngest entry. The
// caller must have checked fbLen < Cfg.FetchBufferSize.
func (c *Core) fbPush() *fetchEntry {
	fe := c.fbAt(c.fbLen)
	*fe = fetchEntry{}
	c.fbLen++
	return fe
}

func (c *Core) fbPopHead() {
	c.fbHead++
	if c.fbHead == len(c.fetchBuf) {
		c.fbHead = 0
	}
	c.fbLen--
}

// fetch fills the decoupled fetch buffer along the predicted path. One
// I-cache access covers a fetch group; a group ends at a predicted-taken
// control transfer or an I-cache line boundary.
func (c *Core) fetch() {
	if c.halted || c.cycle < c.fetchStallTil {
		return
	}
	if c.fbLen >= c.Cfg.FetchBufferSize {
		return
	}
	// Instruction storage is byte-addressed through the encoded form.
	lineBytes := uint64(c.Hier.L1I.Config().LineBytes)
	fetchAddr := c.fetchPC * isa.WordSize
	c.active = true
	done := c.Hier.AccessInstr(c.cycle, fetchAddr)
	if done > c.cycle+c.Hier.Config().L1I.LatencyCycles {
		// I-cache miss: stall the front end until the fill completes.
		c.fetchStallTil = done
		return
	}
	lineBase := fetchAddr / lineBytes

	for n := 0; n < c.Cfg.FetchWidth && c.fbLen < c.Cfg.FetchBufferSize; n++ {
		pc := c.fetchPC
		if pc*isa.WordSize/lineBytes != lineBase {
			break // crossed into the next I-cache line
		}
		var ins isa.Instruction
		if pc < uint64(len(c.Prog.Code)) {
			ins = c.Prog.Code[pc]
		} else {
			// Wrong-path fetch beyond the program: synthesize a NOP; it is
			// guaranteed to be squashed (a correct program halts).
			ins = isa.Instruction{Op: isa.NOP}
		}
		fe := c.fbPush()
		fe.pc = pc
		fe.ins = ins
		fe.readyCycle = done + c.Cfg.FrontendDepth
		if ins.IsLoad() {
			// Only loads need front-end repair state outside a checkpoint:
			// a memory-dependence violation squashes from the load and must
			// restore the history/RAS the load was fetched under. Control
			// transfers carry their own snapshot inside the predictor
			// checkpoint, and nothing else can trigger a squash.
			fe.histAt = c.Pred.Hist
			fe.rasAt = c.Pred.Ras.Snapshot()
		}
		c.Stats.Fetched++

		nextPC := pc + 1
		switch {
		case ins.IsCondBranch():
			c.Pred.PredictCond(pc, &fe.cp)
			fe.hasCp = true
			nextPC = fe.cp.Target
		case ins.Op == isa.JAL:
			target := pc + uint64(ins.Imm)
			c.Pred.PredictJump(pc, target, true, ins.IsCall(), false, &fe.cp)
			fe.hasCp = true
			nextPC = fe.cp.Target
		case ins.Op == isa.JALR:
			c.Pred.PredictJump(pc, 0, false, ins.IsCall(), ins.IsReturn(), &fe.cp)
			fe.hasCp = true
			nextPC = fe.cp.Target
		case ins.Op == isa.HALT:
			c.halted = true
		}
		fe.predTarget = nextPC
		c.fetchPC = nextPC
		if c.halted {
			break
		}
		if fe.hasCp && nextPC != pc+1 {
			break // redirected: next group starts next cycle
		}
	}
}

// redirect points fetch at pc and drops everything in the front end.
func (c *Core) redirect(pc uint64) {
	c.fbHead, c.fbLen = 0, 0
	c.fetchPC = pc
	c.halted = false
	// One bubble for the redirect itself; the refilled instructions then
	// pay the frontend depth through their readyCycle.
	c.fetchStallTil = c.cycle + 1
}
