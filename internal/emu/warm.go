package emu

import "spt/internal/isa"

// WarmEvent is one instruction's worth of microarchitectural warming
// information, emitted by RunWarm as the block engine executes. The
// checkpoint walker replays batches of these into the memory hierarchy
// and branch predictors; the stream is byte-identical — same events, same
// order, same operand values — to what warmEventFor yields for each
// instruction against its pre-execution state in a Step loop, because
// every field is captured before the instruction executes.
//
// Kind selects the event class; Aux carries the class-specific operand:
// the data address for loads and stores, the resolved (post-execution)
// control-flow target for branches and jumps, and zero for plain fetches.
// PC is the instruction's program counter in word units.
type WarmEvent struct {
	PC   uint64
	Aux  uint64
	Kind uint8
}

// WarmEvent kinds. WarmFetch is zero so a freshly appended event defaults
// to a plain instruction fetch and only the interesting classes pay for a
// second write.
const (
	WarmFetch uint8 = iota
	WarmLoad
	WarmStore
	WarmCondNotTaken
	WarmCondTaken
	WarmJal      // direct jump, not a call
	WarmJalCall  // direct jump writing the return-address register
	WarmJalr     // indirect jump, neither call nor return
	WarmJalrCall // indirect call
	WarmJalrRet  // return (indirect jump through the return-address register)
)

// warmBufCap sizes the warming event buffer: large enough to amortize the
// flush callback over thousands of instructions, small enough to stay
// resident in L1/L2 while the replay loop walks it.
const warmBufCap = 4096

// RunWarm executes like Run but streams one WarmEvent per retired
// instruction into flush, in retirement order. flush is called whenever
// the internal buffer fills and once more before RunWarm returns; the
// slice it receives is reused across calls and must not be retained.
// It reports the number of instructions retired by this call.
func (e *Emulator) RunWarm(maxInstructions uint64, flush func([]WarmEvent)) (uint64, error) {
	return e.runBlocks(maxInstructions, flush)
}

// warmEventFor classifies the instruction at pc against the current
// (pre-execution) architectural state — the per-instruction mirror of the
// event emission inlined in the block dispatch loop, used on the
// budget-truncated tail path and as the Step-side reference in the
// engine's lockstep test.
func warmEventFor(s *State, pc uint64, ins *isa.Instruction) WarmEvent {
	ev := WarmEvent{PC: pc}
	switch {
	case ins.IsMem():
		ev.Aux = s.Regs[ins.Rs1] + uint64(ins.Imm)
		if ins.IsStore() {
			ev.Kind = WarmStore
		} else {
			ev.Kind = WarmLoad
		}
	case ins.IsCondBranch():
		if BranchTaken(ins.Op, s.Regs[ins.Rs1], s.Regs[ins.Rs2]) {
			ev.Kind = WarmCondTaken
			ev.Aux = pc + uint64(ins.Imm)
		} else {
			ev.Kind = WarmCondNotTaken
			ev.Aux = pc + 1
		}
	case ins.Op == isa.JAL:
		ev.Aux = pc + uint64(ins.Imm)
		if ins.IsCall() {
			ev.Kind = WarmJalCall
		} else {
			ev.Kind = WarmJal
		}
	case ins.Op == isa.JALR:
		ev.Aux = s.Regs[ins.Rs1] + uint64(ins.Imm)
		switch {
		case ins.IsCall():
			ev.Kind = WarmJalrCall
		case ins.IsReturn():
			ev.Kind = WarmJalrRet
		default:
			ev.Kind = WarmJalr
		}
	}
	return ev
}
