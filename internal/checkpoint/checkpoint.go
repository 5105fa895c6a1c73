// Package checkpoint implements gem5/SimPoint-style functional
// fast-forwarding for the simulator: a program's prefix executes on the
// ~100x-faster functional emulator (optionally warming the memory
// hierarchy and branch predictors along the way), and the resulting
// architectural snapshot plus warm microarchitectural state boots
// detailed cores from the region of interest instead of from reset.
//
// The three layers:
//
//   - Walker drives the functional pass: it advances the emulator and, in
//     warm mode, streams every instruction fetch, load, store, and branch
//     through a mem.Hierarchy and predictor.Unit so caches, the TLB, and
//     TAGE reach the region of interest warm. Warming is scheme-independent
//     (no protection policy observes it), which is what makes the result
//     shareable across grid cells.
//   - Checkpoint packages one (snapshot, warm state) pair. It is an
//     immutable template: Materialize hands out per-core copies, so one
//     checkpoint boots any number of detailed cores, concurrently.
//   - Store (store.go) caches checkpoints in memory (build-once per key
//     under concurrency), keeps one walker per program that sampled
//     windows extend, and persists architectural snapshots on disk.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"spt/internal/emu"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/predictor"
)

// ProgramHash is the content identity of a program: SHA-256 over the
// entry point, the encoded code section, and every data segment. Two
// programs with equal hashes have identical architectural behavior, so
// the hash keys the checkpoint cache (a workload generator change
// invalidates stale checkpoints automatically).
func ProgramHash(p *isa.Program) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(p.Entry)
	code := isa.EncodeProgram(p.Code)
	u64(uint64(len(code)))
	h.Write(code)
	u64(uint64(len(p.Data)))
	for _, seg := range p.Data {
		u64(seg.Addr)
		u64(uint64(len(seg.Bytes)))
		h.Write(seg.Bytes)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Checkpoint is an immutable (snapshot, warm state) template at one point
// of one program's execution. Hier and Pred hold functionally warmed
// microarchitectural state with statistics already reset; they are nil
// for cold checkpoints (e.g. loaded from disk without replay), in which
// case a restored core boots with a fresh hierarchy and predictor.
type Checkpoint struct {
	Snap *emu.Snapshot
	Hier *mem.Hierarchy
	Pred *predictor.Unit
}

// Materialize returns the state to boot one detailed core: the shared
// snapshot (safe to reuse — restores are copy-on-write) plus per-core
// copies of the warm hierarchy and predictor, or cold ones built from
// hcfg when the checkpoint carries no warm state. Safe to call
// concurrently.
func (cp *Checkpoint) Materialize(hcfg mem.HierarchyConfig) (*emu.Snapshot, *mem.Hierarchy, *predictor.Unit) {
	if cp.Hier == nil {
		return cp.Snap, mem.NewHierarchy(hcfg), predictor.NewUnit()
	}
	return cp.Snap, cp.Hier.Clone(), cp.Pred.Clone()
}

// Walker advances a program functionally, optionally warming a memory
// hierarchy and branch-prediction unit as it goes. One walker makes any
// number of checkpoints at increasing instruction counts (the sampling
// driver checkpoints once per interval from a single pass).
type Walker struct {
	Em   *emu.Emulator
	Hier *mem.Hierarchy  // nil when warming is off
	Pred *predictor.Unit // nil when warming is off

	// now is the warming pseudo-clock: one tick per instruction, so MSHR
	// entries and LRU stamps age plausibly during the functional pass.
	now uint64
}

// NewWalker builds a walker at the program's entry point. With warm set,
// fetches, loads, stores, and branches stream through a fresh hierarchy
// (built from hcfg) and predictor unit.
func NewWalker(p *isa.Program, hcfg mem.HierarchyConfig, warm bool) *Walker {
	w := &Walker{Em: emu.New(p)}
	if warm {
		w.Hier = mem.NewHierarchy(hcfg)
		w.Pred = predictor.NewUnit()
	}
	return w
}

// Advance executes functionally until the emulator has retired target
// instructions in total. In warm mode it takes the block-granular fast
// path: the emulator's superblock engine batches one WarmEvent per
// retired instruction and replay streams each batch into the hierarchy
// and predictor. The event stream is byte-identical — same events, same
// order, same operand values — to what AdvanceHooked's per-instruction
// Step pass produces, so checkpoints (and their hashes) do not depend on
// which path built them; TestWalkerReplayMatchesHooked and the walker
// determinism goldens are the contract. Reaching HALT before the target
// is an error: a checkpoint past the end of the program is meaningless.
func (w *Walker) Advance(target uint64) error {
	st := &w.Em.State
	for st.Retired < target {
		if st.Halted {
			return fmt.Errorf("checkpoint: %s halted after %d instructions (fast-forward target %d)",
				w.Em.Prog.Name, st.Retired, target)
		}
		var err error
		if w.Hier != nil {
			_, err = w.Em.RunWarm(target-st.Retired, w.replay)
		} else {
			_, err = w.Em.Run(target - st.Retired)
		}
		if err != nil {
			return fmt.Errorf("checkpoint: %s: %w", w.Em.Prog.Name, err)
		}
	}
	return nil
}

// AdvanceHooked is the per-instruction reference warming path: identical
// semantics to Advance, but it never touches the block engine. Each
// instruction is warmed by warmOne against the pre-execution state and
// then executed by Step, the emulator's golden interpreter, so a dispatch
// bug in the block engine cannot hide in both paths at once. It exists so
// tests can pin the fast path's warm state to an independent reference.
func (w *Walker) AdvanceHooked(target uint64) error {
	e := w.Em
	st := &e.State
	code := e.Prog.Code
	for st.Retired < target {
		if st.Halted {
			return fmt.Errorf("checkpoint: %s halted after %d instructions (fast-forward target %d)",
				e.Prog.Name, st.Retired, target)
		}
		if w.Hier != nil && st.PC < uint64(len(code)) {
			w.warmOne(st.PC, &code[st.PC])
		}
		if err := e.Step(); err != nil {
			return fmt.Errorf("checkpoint: %s: %w", e.Prog.Name, err)
		}
	}
	return nil
}

// replay streams a batch of warming events into the warm structures — the
// block-granular counterpart of warmOne. Every arm mirrors warmOne
// exactly: one pseudo-clock tick and an instruction fetch per event, then
// the class-specific access or predictor round trip. The emulator
// captured each event's operands at the same pre-execution point warmOne
// reads them, so the two paths train identical state.
func (w *Walker) replay(evs []emu.WarmEvent) {
	h, p := w.Hier, w.Pred
	now := w.now
	var cpv predictor.Checkpoint
	cp := &cpv
	for i := range evs {
		ev := &evs[i]
		now++
		h.AccessInstr(now, ev.PC*uint64(isa.WordSize))
		switch ev.Kind {
		case emu.WarmFetch:
		case emu.WarmLoad:
			h.AccessData(now, ev.Aux, false)
		case emu.WarmStore:
			h.AccessData(now, ev.Aux, true)
		case emu.WarmCondNotTaken:
			p.PredictCond(ev.PC, cp)
			if p.ResolveCond(cp, false, ev.Aux) {
				p.Recover(cp, false)
			}
		case emu.WarmCondTaken:
			p.PredictCond(ev.PC, cp)
			if p.ResolveCond(cp, true, ev.Aux) {
				p.Recover(cp, true)
			}
		case emu.WarmJal:
			p.PredictJump(ev.PC, ev.Aux, true, false, false, cp)
			p.ResolveJump(cp, ev.Aux, false)
		case emu.WarmJalCall:
			p.PredictJump(ev.PC, ev.Aux, true, true, false, cp)
			p.ResolveJump(cp, ev.Aux, false)
		case emu.WarmJalr:
			p.PredictJump(ev.PC, 0, false, false, false, cp)
			if p.ResolveJump(cp, ev.Aux, true) {
				p.Recover(cp, true)
			}
		case emu.WarmJalrCall:
			p.PredictJump(ev.PC, 0, false, true, false, cp)
			if p.ResolveJump(cp, ev.Aux, true) {
				p.Recover(cp, true)
			}
		case emu.WarmJalrRet:
			p.PredictJump(ev.PC, 0, false, false, true, cp)
			if p.ResolveJump(cp, ev.Aux, true) {
				p.Recover(cp, true)
			}
		}
	}
	w.now = now
}

// warmOne streams the next instruction's microarchitectural events into
// the warm structures before the emulator executes it (AdvanceHooked calls
// it ahead of each Step, so the registers it reads are still the
// pre-execution values). Branch training mirrors the detailed
// pipeline's resolution path (predict, resolve, recover on mispredict) so
// the predictor reaches the same trained state it would after in-order
// execution of the prefix.
func (w *Walker) warmOne(pc uint64, ins *isa.Instruction) {
	st := &w.Em.State
	w.now++
	w.Hier.AccessInstr(w.now, pc*uint64(isa.WordSize))
	switch {
	case ins.IsMem():
		addr := st.Regs[ins.Rs1] + uint64(ins.Imm)
		// An MSHR-full miss is retried next tick in the detailed model; in
		// functional mode the access simply does not install this tick.
		w.Hier.AccessData(w.now, addr, ins.IsStore())
	case ins.IsCondBranch():
		var cp predictor.Checkpoint
		w.Pred.PredictCond(pc, &cp)
		taken := emu.BranchTaken(ins.Op, st.Regs[ins.Rs1], st.Regs[ins.Rs2])
		target := pc + 1
		if taken {
			target = pc + uint64(ins.Imm)
		}
		if w.Pred.ResolveCond(&cp, taken, target) {
			w.Pred.Recover(&cp, taken)
		}
	case ins.Op == isa.JAL:
		target := pc + uint64(ins.Imm)
		var cp predictor.Checkpoint
		w.Pred.PredictJump(pc, target, true, ins.IsCall(), false, &cp)
		w.Pred.ResolveJump(&cp, target, false)
	case ins.Op == isa.JALR:
		target := st.Regs[ins.Rs1] + uint64(ins.Imm)
		var cp predictor.Checkpoint
		w.Pred.PredictJump(pc, 0, false, ins.IsCall(), ins.IsReturn(), &cp)
		if w.Pred.ResolveJump(&cp, target, true) {
			w.Pred.Recover(&cp, true)
		}
	}
}

// Checkpoint captures the walker's current point as an immutable
// template. The walker keeps running afterwards (pages are frozen
// copy-on-write; warm state is cloned), so successive checkpoints from
// one pass are independent. Warm-state statistics are reset on the
// checkpoint's copies: a detailed region measures only itself.
func (w *Walker) Checkpoint() *Checkpoint {
	cp := &Checkpoint{Snap: w.Em.Snapshot()}
	if w.Hier != nil {
		cp.Hier = w.Hier.Clone()
		cp.Hier.ResetStats()
		cp.Pred = w.Pred.Clone()
		cp.Pred.ResetStats()
	}
	return cp
}

// Build runs one functional pass over prog's first skip instructions and
// returns the checkpoint at that point (with warm state when warm is
// set). Use a Store to share and persist the result.
func Build(p *isa.Program, skip uint64, hcfg mem.HierarchyConfig, warm bool) (*Checkpoint, error) {
	w := NewWalker(p, hcfg, warm)
	if err := w.Advance(skip); err != nil {
		return nil, err
	}
	return w.Checkpoint(), nil
}
