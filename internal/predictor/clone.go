package predictor

// Clone returns a deep copy of the whole front end: TAGE (base and tagged
// tables, allocation RNG), loop predictor, BTB, RAS, indirect predictor,
// speculative history, and counters. A functionally-warmed unit is cloned
// per restored core so detailed regions can train it independently.
func (u *Unit) Clone() *Unit {
	return &Unit{
		Tage:  u.Tage.Clone(),
		Loop:  u.Loop.Clone(),
		Btb:   u.Btb.Clone(),
		Ras:   u.Ras.Clone(),
		Ind:   u.Ind.Clone(),
		Hist:  u.Hist,
		Stats: u.Stats,
	}
}

// ResetStats zeroes the unit's counters (its own, TAGE's, and the BTB's)
// without touching predictor contents.
func (u *Unit) ResetStats() {
	u.Stats = UnitStats{}
	u.Tage.Stats = TAGEStats{}
	u.Btb.Stats = BTBStats{}
}

// Clone returns a deep copy of the TAGE predictor, including the xorshift
// allocation state so a cloned predictor's future behavior is identical.
func (t *TAGE) Clone() *TAGE {
	out := &TAGE{
		base:   new([tageBaseEntries]int8),
		tagged: new([tageTables][tageEntries]tageEntry),
		rng:    t.rng,
		Stats:  t.Stats,
	}
	*out.base = *t.base
	*out.tagged = *t.tagged
	return out
}

// Clone returns a deep copy of the loop predictor.
func (lp *LoopPredictor) Clone() *LoopPredictor {
	return &LoopPredictor{entries: append([]loopEntry(nil), lp.entries...), mask: lp.mask}
}

// Clone returns a deep copy of the BTB.
func (b *BTB) Clone() *BTB {
	return &BTB{
		tags:    append([]uint64(nil), b.tags...),
		targets: append([]uint64(nil), b.targets...),
		valid:   append([]bool(nil), b.valid...),
		mask:    b.mask,
		Stats:   b.Stats,
	}
}

// Clone returns a deep copy of the return address stack.
func (r *RAS) Clone() *RAS {
	return &RAS{stack: append([]uint64(nil), r.stack...), top: r.top}
}

// Clone returns a deep copy of the indirect-target predictor.
func (ip *Indirect) Clone() *Indirect {
	return &Indirect{
		tags:    append([]uint64(nil), ip.tags...),
		targets: append([]uint64(nil), ip.targets...),
		valid:   append([]bool(nil), ip.valid...),
		mask:    ip.mask,
	}
}
