package predictor

// Unit bundles the front-end prediction structures and owns the speculative
// global history. The fetch stage calls the Predict* methods; the branch
// unit calls Resolve when resolution effects are permitted (under SPT/STT,
// only once the predicate is untainted — keeping tainted data out of
// predictor state, per the paper's prediction-based implicit channel rule).
type Unit struct {
	Tage *TAGE
	Loop *LoopPredictor
	Btb  *BTB
	Ras  *RAS
	Ind  *Indirect

	// Hist is the speculative global history used for lookups.
	Hist History

	Stats UnitStats
}

// UnitStats counts outcomes per branch class.
type UnitStats struct {
	CondPredicts   uint64
	CondMispredict uint64
	LoopOverrides  uint64
	JumpPredicts   uint64
	JumpMispredict uint64
}

// NewUnit builds the default front end (LTAGE-class sizes).
func NewUnit() *Unit {
	return &Unit{
		Tage: DefaultTAGE(),
		Loop: NewLoopPredictor(256),
		Btb:  NewBTB(4096),
		Ras:  NewRAS(32),
		Ind:  NewIndirect(512),
	}
}

// Reset returns the unit in place to the state NewUnit builds: every
// table, counter and tag zero, TAGE's allocation RNG reseeded, the RAS
// empty, and the history and every statistic cleared. It keeps the
// tables' storage, so a reset costs a clear instead of an allocation.
func (u *Unit) Reset() {
	u.Tage.reset()
	u.Loop.reset()
	u.Btb.reset()
	u.Ras.reset()
	u.Ind.reset()
	u.Hist = History{}
	u.Stats = UnitStats{}
}

// Checkpoint is the per-branch snapshot needed to look up, train, and — on
// a squash — repair the front end.
type Checkpoint struct {
	PC         uint64
	Pred       Prediction
	HistBefore History
	RasSnap    RASSnapshot
	Taken      bool   // predicted direction
	Target     uint64 // predicted next PC
	UsedLoop   bool
}

// PredictCond predicts the conditional branch at pc and speculatively
// updates history, filling cp in place. The checkpoint must be passed to
// Resolve (to train) and, on a misprediction, to Recover. Checkpoints are
// filled through a pointer rather than returned: they are 120 bytes and
// every retired branch moves one through predict and resolve, so by-value
// passing made struct copying a measurable slice of functional warming.
func (u *Unit) PredictCond(pc uint64, cp *Checkpoint) {
	u.Stats.CondPredicts++
	*cp = Checkpoint{PC: pc, HistBefore: u.Hist, RasSnap: u.Ras.Snapshot()}
	u.Tage.Predict(pc, u.Hist, &cp.Pred)
	cp.Taken = cp.Pred.Taken
	if loopTaken, confident := u.Loop.Predict(pc); confident {
		cp.Taken = loopTaken
		cp.UsedLoop = true
		u.Stats.LoopOverrides++
	}
	if cp.Taken {
		if target, ok := u.Btb.Lookup(pc); ok {
			cp.Target = target
		} else {
			// No target known: fetch falls through; the branch will
			// mispredict if actually taken.
			cp.Taken = false
			cp.Target = pc + 1
		}
	} else {
		cp.Target = pc + 1
	}
	u.Hist = u.Hist.Update(pc, cp.Taken)
}

// PredictJump predicts an unconditional control transfer (JAL/JALR) at pc.
// directTarget is the statically-known target for JAL (ok=false for JALR).
// cp is filled in place (see PredictCond).
func (u *Unit) PredictJump(pc uint64, directTarget uint64, direct, isCall, isReturn bool, cp *Checkpoint) {
	u.Stats.JumpPredicts++
	*cp = Checkpoint{PC: pc, HistBefore: u.Hist, RasSnap: u.Ras.Snapshot(), Taken: true}
	switch {
	case direct:
		cp.Target = directTarget
	case isReturn:
		cp.Target = u.Ras.Pop()
	default:
		if target, ok := u.Ind.Lookup(pc, u.Hist); ok {
			cp.Target = target
		} else if target, ok := u.Btb.Lookup(pc); ok {
			cp.Target = target
		} else {
			cp.Target = pc + 1 // no idea: stall-free guess
		}
	}
	if isCall {
		u.Ras.Push(pc + 1)
	}
	u.Hist = u.Hist.Update(pc, true)
}

// ResolveCond trains the structures with a conditional branch's outcome.
// Mispredicted reports whether the prediction was wrong. Train only when
// the protection policy permits resolution effects.
func (u *Unit) ResolveCond(cp *Checkpoint, taken bool, target uint64) (mispredicted bool) {
	mispredicted = taken != cp.Taken
	if mispredicted {
		u.Stats.CondMispredict++
	}
	u.Tage.Update(cp.PC, cp.HistBefore, &cp.Pred, taken)
	u.Loop.Update(cp.PC, taken)
	if taken {
		u.Btb.Insert(cp.PC, target)
	}
	return mispredicted
}

// ResolveJump trains the structures with an indirect jump's target.
func (u *Unit) ResolveJump(cp *Checkpoint, target uint64, indirect bool) (mispredicted bool) {
	mispredicted = target != cp.Target
	if mispredicted {
		u.Stats.JumpMispredict++
	}
	if indirect {
		u.Ind.Update(cp.PC, cp.HistBefore, target)
		u.Btb.Insert(cp.PC, target)
	}
	return mispredicted
}

// Recover repairs the speculative state after squashing from a
// mispredicted control-flow instruction: history is rebuilt from the
// checkpoint with the correct outcome, and the RAS is restored.
func (u *Unit) Recover(cp *Checkpoint, actualTaken bool) {
	u.Hist = cp.HistBefore.Update(cp.PC, actualTaken)
	u.Ras.Restore(cp.RasSnap)
}
