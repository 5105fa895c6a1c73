package pipeline

// noteMemStart records stats when a memory instruction's access finally
// starts: the executed-op counter and, if the policy ever blocked it, the
// delayed-transmitter count and blocked-cycle distribution.
func (c *Core) noteMemStart(di *DynInst) {
	c.active = true
	if di.IsLd {
		c.Stats.LoadsExecuted++
	} else {
		c.Stats.StoresExecuted++
	}
	if di.delayCycles > 0 {
		c.Stats.DelayedTransmitters++
		c.Stats.TransmitterDelay.Observe(uint64(di.delayCycles))
	}
}

// delay charges one policy-blocked cycle to memory instruction di.
func (c *Core) delay(di *DynInst) {
	di.DelayedByPolicy = true
	di.blocked = true
	di.delayCycles++
	c.Stats.TransmitterDelays++
}

// memStage advances the load/store unit by one cycle: stores translate
// their addresses (policy-gated) and check younger loads for
// memory-dependence violations; loads perform their (policy-gated) cache
// access, forwarding from the store queue when an older store matches.
func (c *Core) memStage() {
	ports := c.Cfg.MemPorts

	// Skip the prefix of stores that have both translated and run their
	// violation check: no further work here until they drain.
	for c.sqMemSkip < c.sqLen {
		st := c.sqAt(c.sqMemSkip)
		if !st.violCheck || !st.MemIssued {
			break
		}
		c.sqMemSkip++
	}
	sqA, sqB := c.sqWindowFrom(c.sqMemSkip)
	for _, win := range [2][]*DynInst{sqA, sqB} {
		for _, st := range win {
			if !st.AddrKnown {
				continue
			}
			// Violation detection happens when the store's virtual address
			// becomes known, independent of when the store is allowed to
			// "execute" (translate): the LSQ compares virtual addresses.
			if !st.violCheck {
				st.violCheck = true
				c.active = true
				c.checkViolations(st)
			}
			if st.MemIssued {
				continue
			}
			st.blocked = false
			if c.Pol != nil && !c.Pol.MayExecuteMem(st) {
				if lat, ok := c.obliviousLatency(st); ok {
					if ports == 0 {
						continue
					}
					ports--
					// Oblivious store execution: no TLB lookup; the address
					// stays architecturally hidden until retirement.
					st.MemIssued = true
					st.Oblivious = true
					st.DoneCycle = c.cycle + lat
					c.Stats.ObliviousExecs++
					c.noteMemStart(st)
					continue
				}
				c.delay(st)
				continue
			}
			if ports == 0 {
				continue
			}
			ports--
			st.MemIssued = true
			c.noteMemStart(st)
			// Store execution is the address translation; the data write
			// happens at retirement (TSO).
			if c.Observer != nil {
				c.Observer('T', c.cycle, st.EffAddr&^0xFFF)
			}
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, st, "mem")
			}
			extra := c.Hier.DTLB.Translate(st.EffAddr)
			st.DoneCycle = c.cycle + 1 + extra
		}
	}

	// Skip the prefix of loads whose access has started (or that are about
	// to be squashed for a violation): memStage is done with them.
	for c.lqMemSkip < c.lqLen {
		ld := c.lqAt(c.lqMemSkip)
		if !ld.MemIssued && !ld.Violation {
			break
		}
		c.lqMemSkip++
	}
	lqA, lqB := c.lqWindowFrom(c.lqMemSkip)
	for _, win := range [2][]*DynInst{lqA, lqB} {
		for _, ld := range win {
			if !ld.AddrKnown || ld.MemIssued || ld.Violation {
				continue
			}
			ld.blocked = false
			if c.Pol != nil && !c.Pol.MayExecuteMem(ld) {
				if lat, ok := c.obliviousLatency(ld); ok && ports > 0 {
					src, status := c.findStoreSource(ld)
					if status == fwdWait {
						continue
					}
					ports--
					// Oblivious load execution: correct data, fixed latency,
					// no speculative cache or TLB state change. The demand
					// access replays non-speculatively at retirement.
					ld.MemIssued = true
					ld.Oblivious = true
					c.noteMemStart(ld)
					ld.DoneCycle = c.cycle + lat
					if status == fwdFrom {
						ld.FwdStore = src
						ld.FwdSeq = src.Seq
						ld.Val = extractStoreBytes(c.val(src.Src2), src, ld)
						c.Stats.STLForwards++
					} else {
						ld.Val = c.Mem.Read(ld.EffAddr, int(ld.MemSz))
					}
					c.Stats.ObliviousExecs++
					continue
				}
				c.delay(ld)
				continue
			}
			if ports == 0 {
				return
			}
			src, status := c.findStoreSource(ld)
			if status == fwdWait {
				continue // partial overlap or source data not ready yet
			}
			if status == fwdFrom && c.stlForwardPublic(src, ld) {
				// Fast forwarding: the forwarding decision is public (always,
				// on the unprotected machine; under SPT/STT, when STLPublic
				// holds), so the load reads the store queue directly with no
				// cache access.
				ports--
				ld.MemIssued = true
				c.noteMemStart(ld)
				ld.FwdStore = src
				ld.FwdSeq = src.Seq
				ld.Val = extractStoreBytes(c.val(src.Src2), src, ld)
				ld.DoneCycle = c.cycle + c.Hier.Config().L1D.LatencyCycles
				c.Stats.STLForwards++
				if c.Tracer != nil {
					c.Tracer.Event(c.cycle, ld, "mem")
				}
				continue
			}
			// Otherwise the load accesses the cache even when forwarding
			// occurs (the paper's mechanism): the forwarded value is written
			// only when the access completes, so the forwarding decision is
			// not observable through cache state or timing.
			done, ok := c.Hier.AccessData(c.cycle, ld.EffAddr, false)
			if !ok {
				// All MSHRs busy: retry next cycle. The retry counts an
				// MSHR stall, so the cycle is not quiet.
				c.active = true
				continue
			}
			if c.Observer != nil {
				c.Observer('L', c.cycle, ld.EffAddr&^63)
			}
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, ld, "mem")
			}
			ports--
			ld.MemIssued = true
			c.noteMemStart(ld)
			ld.DoneCycle = done
			if status == fwdFrom {
				ld.FwdStore = src
				ld.FwdSeq = src.Seq
				ld.Val = extractStoreBytes(c.val(src.Src2), src, ld)
				c.Stats.STLForwards++
			} else {
				ld.Val = c.Mem.Read(ld.EffAddr, int(ld.MemSz))
			}
		}
	}
}

// stlForwardPublic reports whether forwarding from st to ld may happen
// openly (fast, no camouflage cache access).
func (c *Core) stlForwardPublic(st, ld *DynInst) bool {
	if c.Pol == nil {
		return true
	}
	if q, ok := c.Pol.(STLQuery); ok {
		return q.STLForwardPublic(st, ld)
	}
	return false
}

type fwdStatus uint8

const (
	fwdNone fwdStatus = iota // read from memory
	fwdFrom                  // forward from the returned store
	fwdWait                  // must wait (partial overlap or data not ready)
)

// findStoreSource scans older stores, youngest first, for one overlapping
// the load. Stores whose addresses are still unknown are speculated past
// (memory-dependence speculation); checkViolations catches mistakes. The
// ring is walked as its two contiguous segments, younger one (backwards)
// first, preserving youngest-first order.
func (c *Core) findStoreSource(ld *DynInst) (*DynInst, fwdStatus) {
	older, younger := c.SQWindow()
	for _, win := range [2][]*DynInst{younger, older} {
		for i := len(win) - 1; i >= 0; i-- {
			st := win[i]
			if status, decided := storeMatch(c, st, ld); decided {
				return st, status
			}
		}
	}
	return nil, fwdNone
}

// storeMatch reports whether st settles ld's forwarding decision: decided
// is false when the scan must keep looking at older stores.
func storeMatch(c *Core, st, ld *DynInst) (fwdStatus, bool) {
	if st.Seq >= ld.Seq {
		return fwdNone, false
	}
	if !st.AddrKnown {
		return fwdNone, false // speculate: assume no alias
	}
	if !rangesOverlap(st, ld) {
		return fwdNone, false
	}
	if !rangeContains(st, ld) {
		return fwdWait, true // partial overlap: wait for the store to retire
	}
	if !c.RegReady(st.Src2) {
		return fwdWait, true // store data not produced yet
	}
	return fwdFrom, true
}

func rangesOverlap(st, ld *DynInst) bool {
	sa, sb := st.EffAddr, st.EffAddr+st.MemSz
	la, lb := ld.EffAddr, ld.EffAddr+ld.MemSz
	return sa < lb && la < sb
}

func rangeContains(st, ld *DynInst) bool {
	return ld.EffAddr >= st.EffAddr &&
		ld.EffAddr+ld.MemSz <= st.EffAddr+st.MemSz
}

// extractStoreBytes pulls the load's bytes out of the (containing) store's
// data value.
func extractStoreBytes(stData uint64, st, ld *DynInst) uint64 {
	shift := (ld.EffAddr - st.EffAddr) * 8
	v := stData >> shift
	if sz := ld.MemSz; sz < 8 {
		v &= (1 << (8 * sz)) - 1
	}
	return v
}

// checkViolations marks younger loads that already got their data from
// somewhere older than st even though st's address overlaps theirs. The
// violating store is recorded by value (sequence number and renamed address
// operand) because its ring slot may be recycled before the squash fires.
func (c *Core) checkViolations(st *DynInst) {
	older, younger := c.LQWindow()
	for _, win := range [2][]*DynInst{older, younger} {
		for _, ld := range win {
			if ld.Seq <= st.Seq || !ld.MemIssued || ld.Violation {
				continue
			}
			if !rangesOverlap(st, ld) {
				continue
			}
			if ld.FwdStore != nil && ld.FwdSeq >= st.Seq {
				continue // load already sourced from this store or a younger one
			}
			ld.Violation = true
			c.violPending++
			ld.HasViolStore = true
			ld.ViolStoreSeq = st.Seq
			ld.ViolSrc1 = st.Src1
		}
	}
}

// resolveViolations applies at most one pending memory-dependence squash,
// oldest load first, when the policy permits (the violation is an implicit
// branch over the involved addresses).
func (c *Core) resolveViolations() {
	if c.squashedThisCycle || c.violPending == 0 {
		return
	}
	for i := 0; i < c.lqLen; i++ {
		ld := c.lqAt(i)
		if !ld.Violation {
			continue
		}
		if c.Pol != nil && !c.Pol.MaySquashOnViolation(ld) {
			ld.DelayedByPolicy = true
			c.Stats.ResolutionDelays++
			return
		}
		c.Stats.MemViolations++
		c.Pred.Hist = ld.HistAt
		c.Pred.Ras.Restore(ld.RasAt)
		c.squashFrom(ld.Seq)
		c.redirect(ld.PC)
		c.squashedThisCycle = true
		c.active = true
		return
	}
}

// obliviousLatency consults the optional ObliviousPolicy extension.
func (c *Core) obliviousLatency(di *DynInst) (uint64, bool) {
	op, ok := c.Pol.(ObliviousPolicy)
	if !ok {
		return 0, false
	}
	return op.ObliviousLatency(di)
}
