package pipeline

// stallCounts are the counters a quiet cycle still advances.
type stallCounts struct {
	retireMemory, transmitter, resolution uint64
}

func (c *Core) stallCounts() stallCounts {
	return stallCounts{c.Stats.RetireStallsMemory, c.Stats.TransmitterDelays, c.Stats.ResolutionDelays}
}

func (a stallCounts) minus(b stallCounts) stallCounts {
	return stallCounts{a.retireMemory - b.retireMemory, a.transmitter - b.transmitter, a.resolution - b.resolution}
}

// quiet reports whether the cycle just simulated changed nothing but the
// stall counters: no stage acted, and the policy's Tick wrote no taint.
func (c *Core) quiet() bool {
	if c.active {
		return false
	}
	return c.Pol == nil || (c.TickWrote != nil && !c.TickWrote())
}

// nextEvent returns the earliest cycle, at or after the current one, at
// which a core whose last cycle was quiet can act again: an in-flight
// operation's DoneCycle, the end of a fetch stall, the fetch-buffer head's
// readyCycle, or an ALU coming free. Until then every cycle repeats the
// quiet one. The policy gates read only taint and instruction state, which
// a quiet cycle leaves alone, and everything else a stage waits on (a
// retirement, a free slot, a source value) needs a busy cycle first. ^0
// means nothing is pending.
func (c *Core) nextEvent() uint64 {
	next := ^uint64(0)
	at := func(t uint64) {
		if t >= c.cycle && t < next {
			next = t
		}
	}
	left := c.execOutstanding
	robA, robB := c.robWindowFrom(c.execSkip)
	for _, win := range [2][]DynInst{robA, robB} {
		for i := 0; i < len(win) && left > 0; i++ {
			if di := &win[i]; di.Issued && !di.Done && !di.IsLd && !di.IsSt {
				left--
				at(di.DoneCycle)
			}
		}
	}
	// A store whose DoneCycle has passed waits for its data register, whose
	// producer's completion is an event of its own.
	lqA, lqB := c.LQWindow()
	sqA, sqB := c.SQWindow()
	for _, win := range [4][]*DynInst{lqA, lqB, sqA, sqB} {
		for _, di := range win {
			if di.MemIssued && !di.Done {
				at(di.DoneCycle)
			}
		}
	}
	at(c.fetchStallTil)
	if c.fbLen > 0 {
		at(c.fbAt(0).readyCycle)
	}
	for _, t := range c.aluBusyUntil {
		at(t)
	}
	return next
}

// skipTo advances the clock to target without simulating the cycles in
// between, charging each of them the stall counts per of the quiet cycle
// before it. The transmitters the policy blocked in that cycle stay blocked
// through the skipped ones.
func (c *Core) skipTo(target uint64, per stallCounts) {
	if target <= c.cycle {
		return
	}
	n := target - c.cycle
	c.cycle = target
	c.Stats.Cycles = target
	c.Stats.RetireStallsMemory += n * per.retireMemory
	c.Stats.TransmitterDelays += n * per.transmitter
	c.Stats.ResolutionDelays += n * per.resolution
	lqA, lqB := c.LQWindow()
	sqA, sqB := c.SQWindow()
	for _, win := range [4][]*DynInst{lqA, lqB, sqA, sqB} {
		for _, di := range win {
			if di.blocked {
				di.delayCycles += uint32(n)
			}
		}
	}
}
