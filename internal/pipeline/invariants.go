package pipeline

import "fmt"

// CheckInvariants validates the core's internal consistency. Tests call it
// between cycles and after runs; it is not called on the hot path.
//
// Checked invariants:
//   - physical register conservation: every register is exactly one of
//     {architecturally mapped, in-flight destination, free};
//   - the RAT maps the zero register to physical register 0 and every
//     other architectural register to a unique physical register;
//   - ROB/LQ/SQ are sequence-ordered and the memory queues are exactly the
//     memory subsets of the ROB;
//   - the RS/control-flow/execution occupancy counters match recounts;
//   - no issued load or non-memory operation is still pending past its
//     DoneCycle (a skipped cycle must never pass over a completion).
func (c *Core) CheckInvariants() error {
	// RAT validity and uniqueness.
	if c.rat[0] != 0 {
		return fmt.Errorf("invariant: zero register mapped to p%d", c.rat[0])
	}
	seen := make(map[PhysReg]string, c.Cfg.PhysRegs)
	for r, p := range c.rat {
		if p < 0 || int(p) >= c.Cfg.PhysRegs {
			return fmt.Errorf("invariant: rat[r%d] = p%d out of range", r, p)
		}
		if r != 0 {
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("invariant: p%d mapped by both %s and r%d", p, prev, r)
			}
			seen[p] = fmt.Sprintf("r%d", r)
		}
	}

	// In-flight destinations are disjoint from the RAT-committed view only
	// through OldDst chains; each in-flight Dst must be unique and not
	// free.
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.Dst == NoReg {
			continue
		}
		if prev, dup := seen[di.Dst]; dup && prev != fmt.Sprintf("r%d", di.Ins.Rd) {
			return fmt.Errorf("invariant: p%d owned by %s and seq %d", di.Dst, prev, di.Seq)
		}
		seen[di.Dst] = fmt.Sprintf("seq%d", di.Seq)
	}
	free := make(map[PhysReg]bool, len(c.freeList))
	for _, p := range c.freeList {
		if free[p] {
			return fmt.Errorf("invariant: p%d on the free list twice", p)
		}
		free[p] = true
		if owner, used := seen[p]; used && owner[0] == 's' {
			return fmt.Errorf("invariant: p%d free but in flight (%s)", p, owner)
		}
	}

	// Conservation: mapped + in-flight OldDst chain + free = all.
	// Every physical register except p0 must be either free, RAT-mapped,
	// an in-flight Dst, or an in-flight OldDst (awaiting retirement).
	owned := make(map[PhysReg]bool, c.Cfg.PhysRegs)
	owned[0] = true
	for r := 1; r < len(c.rat); r++ {
		owned[c.rat[r]] = true
	}
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.Dst != NoReg {
			owned[di.Dst] = true
		}
		if di.OldDst != NoReg {
			owned[di.OldDst] = true
		}
	}
	for p := range free {
		owned[p] = true
	}
	for p := 1; p < c.Cfg.PhysRegs; p++ {
		if !owned[PhysReg(p)] {
			return fmt.Errorf("invariant: p%d leaked (not mapped, in flight, or free)", p)
		}
	}

	// Occupancy bounds: the rings must never exceed their configured
	// capacities (the slice-queue representation could silently grow).
	if c.robLen > c.Cfg.ROBSize {
		return fmt.Errorf("invariant: ROB occupancy %d exceeds capacity %d", c.robLen, c.Cfg.ROBSize)
	}
	if c.lqLen > c.Cfg.LQSize {
		return fmt.Errorf("invariant: LQ occupancy %d exceeds capacity %d", c.lqLen, c.Cfg.LQSize)
	}
	if c.sqLen > c.Cfg.SQSize {
		return fmt.Errorf("invariant: SQ occupancy %d exceeds capacity %d", c.sqLen, c.Cfg.SQSize)
	}
	if c.fbLen > c.Cfg.FetchBufferSize {
		return fmt.Errorf("invariant: fetch buffer occupancy %d exceeds capacity %d", c.fbLen, c.Cfg.FetchBufferSize)
	}

	// Queue ordering and membership.
	var lastSeq uint64
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if i > 0 && di.Seq <= lastSeq {
			return fmt.Errorf("invariant: ROB out of order at %d", i)
		}
		lastSeq = di.Seq
		if di.Squashed {
			return fmt.Errorf("invariant: squashed seq %d still in ROB", di.Seq)
		}
	}
	li, si := 0, 0
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.Ins.IsLoad() {
			if li >= c.lqLen || c.lqAt(li) != di {
				return fmt.Errorf("invariant: LQ does not mirror ROB loads at seq %d", di.Seq)
			}
			li++
		}
		if di.Ins.IsStore() {
			if si >= c.sqLen || c.sqAt(si) != di {
				return fmt.Errorf("invariant: SQ does not mirror ROB stores at seq %d", di.Seq)
			}
			si++
		}
	}
	if li != c.lqLen || si != c.sqLen {
		return fmt.Errorf("invariant: stale LQ/SQ entries (%d/%d extra)", c.lqLen-li, c.sqLen-si)
	}

	// Cached decode classification must match the opcode.
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.IsLd != di.Ins.IsLoad() || di.IsSt != di.Ins.IsStore() || di.MemSz != uint64(di.Ins.MemSize()) {
			return fmt.Errorf("invariant: cached decode flags stale at seq %d", di.Seq)
		}
	}

	// Scan-bounding counters: each must equal an explicit recount, since
	// the hot loops trust them to terminate scans early.
	rs, cf, eo, mi, vp := 0, 0, 0, 0, 0
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.Dispatched && !di.Issued {
			rs++
		}
		if di.IsCF && !di.Resolved {
			cf++
		}
		isMem := di.IsLd || di.IsSt
		if di.Issued && !di.Done && !isMem {
			eo++
		}
		// Completion is due at DoneCycle: once that cycle has been
		// simulated, the result is available. Stores are exempt, since
		// they also wait for their data register.
		started := (di.Issued && !isMem) || (di.IsLd && di.MemIssued)
		if started && !di.Done && di.DoneCycle < c.cycle {
			return fmt.Errorf("invariant: seq %d not done at cycle %d, past its DoneCycle %d", di.Seq, c.cycle, di.DoneCycle)
		}
		if isMem && !di.Done {
			mi++
		}
		if di.Violation {
			vp++
		}
	}
	if rs != c.rsCount {
		return fmt.Errorf("invariant: rsCount %d, actual %d", c.rsCount, rs)
	}
	if cf != c.cfUnresolved {
		return fmt.Errorf("invariant: cfUnresolved %d, actual %d", c.cfUnresolved, cf)
	}
	if eo != c.execOutstanding {
		return fmt.Errorf("invariant: execOutstanding %d, actual %d", c.execOutstanding, eo)
	}
	if mi != c.memIncomplete {
		return fmt.Errorf("invariant: memIncomplete %d, actual %d", c.memIncomplete, mi)
	}
	if vp != c.violPending {
		return fmt.Errorf("invariant: violPending %d, actual %d", c.violPending, vp)
	}

	// The RS list must cover every occupied RS slot exactly once (stale
	// references are allowed; issue() drops them lazily).
	live := 0
	for _, e := range c.rsList {
		if e.di.Seq == e.seq && e.di.Dispatched && !e.di.Issued {
			live++
		}
	}
	if live != c.rsCount {
		return fmt.Errorf("invariant: rsList holds %d live entries, rsCount %d", live, c.rsCount)
	}

	// Prefix-skip indexes: every skipped entry must satisfy its scan's
	// "never again actionable" condition.
	type skip struct {
		name string
		idx  int
		max  int
		ok   func(i int) bool
	}
	checks := []skip{
		{"execSkip", c.execSkip, c.robLen, func(i int) bool {
			di := c.robAt(i)
			return di.Done || di.IsLd || di.IsSt
		}},
		{"cfSkip", c.cfSkip, c.robLen, func(i int) bool {
			di := c.robAt(i)
			return !di.IsCF || di.Resolved
		}},
		{"vpSkip", c.vpSkip, c.robLen, func(i int) bool { return c.robAt(i).AtVP }},
		{"lqMemSkip", c.lqMemSkip, c.lqLen, func(i int) bool {
			ld := c.lqAt(i)
			return ld.MemIssued || ld.Violation
		}},
		{"lqDoneSkip", c.lqDoneSkip, c.lqLen, func(i int) bool { return c.lqAt(i).Done }},
		{"sqMemSkip", c.sqMemSkip, c.sqLen, func(i int) bool {
			st := c.sqAt(i)
			return st.violCheck && st.MemIssued
		}},
		{"sqDoneSkip", c.sqDoneSkip, c.sqLen, func(i int) bool { return c.sqAt(i).Done }},
	}
	for _, s := range checks {
		if s.idx < 0 || s.idx > s.max {
			return fmt.Errorf("invariant: %s = %d out of range [0,%d]", s.name, s.idx, s.max)
		}
		for i := 0; i < s.idx; i++ {
			if !s.ok(i) {
				return fmt.Errorf("invariant: %s = %d skips an actionable entry at %d", s.name, s.idx, i)
			}
		}
	}

	// VP monotonicity: AtVP entries form a prefix of the ROB.
	prefix := true
	for i := 0; i < c.robLen; i++ {
		di := c.robAt(i)
		if di.AtVP && !prefix {
			return fmt.Errorf("invariant: AtVP not a ROB prefix at seq %d", di.Seq)
		}
		if !di.AtVP {
			prefix = false
		}
	}
	return nil
}
