package emu

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spt/internal/isa"
	"spt/internal/workloads"
)

// stepRun drives the golden Step interpreter for up to max instructions,
// mirroring Run's stopping conditions (halt or budget). With evs non-nil it
// also records, before each instruction executes, the warming event
// warmEventFor derives from the pre-execution state — the reference the
// block engine's inline event emission is held to.
func stepRun(e *Emulator, max uint64, evs *[]WarmEvent) (uint64, error) {
	var n uint64
	for n < max && !e.State.Halted {
		if evs != nil && e.State.PC < uint64(len(e.Prog.Code)) {
			*evs = append(*evs, warmEventFor(&e.State, e.State.PC, &e.Prog.Code[e.State.PC]))
		}
		if err := e.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func sameState(a, b *State) bool {
	return a.PC == b.PC && a.Halted == b.Halted && a.Retired == b.Retired && a.Regs == b.Regs
}

// compareEngines runs prog through RunWarm (in chunks drawn from rng,
// exercising budget truncation mid-block and event buffer flushes) and
// through the Step loop, in lockstep. Within every chunk the block
// engine's warming events must equal, one for one, the events
// warmEventFor derives from each instruction's pre-execution state in the
// Step loop; at every chunk boundary the full architectural state must
// match, and the memory images must match at the end. Every event carries
// its PC and an operand-derived Aux, so this also pins the retirement
// order and the pre-execution operands each instruction saw.
//
// At the first chunk boundary at or past snapAt both machines are
// snapshotted and keep running, so the block engine's translation slots
// must follow the epoch change and the copy-on-write clones that follow;
// the two snapshots must hash alike then and still hash the same at the
// end. Returns an error description, or "" on success.
func compareEngines(prog *isa.Program, budget, snapAt uint64, rng *rand.Rand) string {
	blk := New(prog)
	ref := New(prog)
	var done uint64
	var got, want []WarmEvent
	var snap *Snapshot
	var snapHash [32]byte
	for done < budget && !blk.State.Halted {
		if snap == nil && done >= snapAt {
			snap = blk.Snapshot()
			snapHash = hashOf(snap)
			if hashOf(ref.Snapshot()) != snapHash {
				return fmt.Sprintf("snapshots at %d differ between the engines", done)
			}
		}
		chunk := uint64(1 + rng.Intn(700))
		if rng.Intn(8) == 0 {
			chunk = uint64(1 + rng.Intn(3*warmBufCap)) // spans buffer flushes
		}
		if done+chunk > budget {
			chunk = budget - done
		}
		got, want = got[:0], want[:0]
		nb, errB := blk.RunWarm(chunk, func(evs []WarmEvent) { got = append(got, evs...) })
		ns, errS := stepRun(ref, chunk, &want)
		if (errB == nil) != (errS == nil) || (errB != nil && errB.Error() != errS.Error()) {
			return "error mismatch: block=" + errString(errB) + " step=" + errString(errS)
		}
		if nb != ns {
			return "retired-count mismatch within chunk"
		}
		if len(got) != len(want) {
			return fmt.Sprintf("chunk at %d: block engine emitted %d warm events, step loop %d", done, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("warm event %d diverges: block %+v, step %+v", done+uint64(i), got[i], want[i])
			}
		}
		if !sameState(&blk.State, &ref.State) {
			return "architectural state diverged at chunk boundary"
		}
		if errB != nil {
			return "" // both failed identically; nothing more to compare
		}
		done += nb
		if nb < chunk && !blk.State.Halted {
			return "block engine under-ran its budget without halting"
		}
	}
	if snap != nil && hashOf(snap) != snapHash {
		return fmt.Sprintf("snapshot at %d changed after the machine ran on", snap.Retired)
	}
	if hashOf(blk.Snapshot()) != hashOf(ref.Snapshot()) {
		return "final memory images differ"
	}
	return ""
}

// hashOf returns the snapshot's content hash. Hashing an in-memory
// snapshot cannot fail, so an error is a test bug.
func hashOf(s *Snapshot) [32]byte {
	h, err := s.Hash()
	if err != nil {
		panic(err)
	}
	return h
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBlockEngineMatchesStepOnSuite cross-checks the threaded-code engine
// against the Step interpreter, event by event, on every suite kernel,
// with random budget chunking so blocks are entered mid-stream and
// truncated mid-block, and a snapshot taken halfway.
func TestBlockEngineMatchesStepOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range workloads.All() {
		p := w.Build(1 << 40)
		if msg := compareEngines(p, 120_000, 60_000, rng); msg != "" {
			t.Errorf("%s: %s", w.Name, msg)
		}
	}
}

// TestBlockEngineMatchesStepQuick property-tests the two engines on random
// programs: same warming events, final registers, PC, halt state, retired
// count, memory image, and identical errors (including ErrPCOutOfRange)
// under random chunking.
func TestBlockEngineMatchesStepQuick(t *testing.T) {
	f := func(seed int64, chunkSeed int64, snapAt uint16) bool {
		rng := rand.New(rand.NewSource(chunkSeed))
		p := workloads.RandomProgram(seed, 60+int(uint64(seed)%140))
		return compareEngines(p, 1_000_000, uint64(snapAt), rng) == ""
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzBlockMatchesStep holds the block engine to the Step interpreter on
// random programs under random chunking, with a snapshot taken between two
// chunks so the translation slots' epoch protocol is fuzzed too.
func FuzzBlockMatchesStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8, chunkSeed int64, snapAt uint16) {
		n := 20 + int(size)%180
		p := workloads.RandomProgram(seed, n)
		if msg := compareEngines(p, 200_000, uint64(snapAt), rand.New(rand.NewSource(chunkSeed))); msg != "" {
			t.Fatalf("%s (size %d, chunk seed %d, snapshot at %d): %s", p.Name, n, chunkSeed, snapAt, msg)
		}
	})
}

// TestBlockEngineOutOfRange pins that running off the end of the code
// section yields the same ErrPCOutOfRange (and the same retired count) as
// the Step loop — including when the fall-off happens via a chained
// fallthrough rather than the outer dispatch check.
func TestBlockEngineOutOfRange(t *testing.T) {
	p := &isa.Program{Code: []isa.Instruction{
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 2},
	}}
	blk := New(p)
	nb, errB := blk.Run(100)
	ref := New(p)
	ns, errS := stepRun(ref, 100, nil)
	var oorB, oorS ErrPCOutOfRange
	if !errors.As(errB, &oorB) || !errors.As(errS, &oorS) {
		t.Fatalf("expected ErrPCOutOfRange from both: block=%v step=%v", errB, errS)
	}
	if oorB != oorS || nb != ns || !sameState(&blk.State, &ref.State) {
		t.Fatalf("out-of-range divergence: block (%d, %v) vs step (%d, %v)", nb, errB, ns, errS)
	}
}

// resetTo rewinds an emulator to the program entry with clean registers,
// deliberately keeping the decoded block cache (that is what is under
// test).
func resetTo(e *Emulator) {
	e.State.PC = e.Prog.Entry
	e.State.Regs = [isa.NumRegs]uint64{}
	e.State.Halted = false
	e.State.Retired = 0
}

// TestSetCodeRedecode covers the code-patching contract: SetCode (and
// direct mutation followed by InvalidateCode) re-decodes on next entry;
// direct mutation without invalidation keeps executing the stale decode.
func TestSetCodeRedecode(t *testing.T) {
	mk := func() *isa.Program {
		return &isa.Program{Code: []isa.Instruction{
			{Op: isa.MOVI, Rd: 1, Imm: 5},
			{Op: isa.ADDI, Rd: 2, Rs1: 1, Imm: 1}, // patch target
			{Op: isa.HALT},
		}}
	}
	patch := isa.Instruction{Op: isa.MUL, Rd: 2, Rs1: 1, Rs2: 1} // r2 = 25

	t.Run("set-code", func(t *testing.T) {
		e := New(mk())
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.State.Regs[2] != 6 {
			t.Fatalf("pre-patch r2 = %d, want 6", e.State.Regs[2])
		}
		e.SetCode(1, patch)
		resetTo(e)
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.State.Regs[2] != 25 {
			t.Fatalf("post-patch r2 = %d, want 25 (stale decode executed)", e.State.Regs[2])
		}
	})

	t.Run("direct-mutation-plus-invalidate", func(t *testing.T) {
		e := New(mk())
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		e.Prog.Code[1] = patch
		e.InvalidateCode(1, 2)
		resetTo(e)
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.State.Regs[2] != 25 {
			t.Fatalf("post-invalidate r2 = %d, want 25", e.State.Regs[2])
		}
	})

	t.Run("stale-without-invalidate", func(t *testing.T) {
		// Pins the documented contract: mutating Prog.Code behind the
		// cache's back keeps the old decode live until InvalidateCode.
		e := New(mk())
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		e.Prog.Code[1] = patch
		resetTo(e)
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.State.Regs[2] != 6 {
			t.Fatalf("stale decode r2 = %d, want 6 (old semantics)", e.State.Regs[2])
		}
		e.InvalidateCode(1, 2)
		resetTo(e)
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.State.Regs[2] != 25 {
			t.Fatalf("post-invalidate r2 = %d, want 25", e.State.Regs[2])
		}
	})

	t.Run("patch-changes-block-shape", func(t *testing.T) {
		// Patching a straight-line op into a branch must split the block:
		// the new branch skips the instruction after it.
		e := New(mk())
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		e.SetCode(1, isa.Instruction{Op: isa.BEQ, Rs1: 0, Rs2: 0, Imm: 1}) // always taken → HALT
		resetTo(e)
		if _, err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if !e.State.Halted || e.State.Regs[2] != 0 || e.State.Retired != 3 {
			t.Fatalf("branch patch: halted=%v r2=%d retired=%d, want true/0/3",
				e.State.Halted, e.State.Regs[2], e.State.Retired)
		}
	})
}

// TestInvalidateCodeScope checks that invalidation is range-sensitive: a
// range overlapping no cached block leaves the cache intact, while any
// overlap drops it wholesale (blocks chain successor pointers, so partial
// eviction would leave stale neighbors reachable).
func TestInvalidateCodeScope(t *testing.T) {
	p := &isa.Program{Code: []isa.Instruction{
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.JAL, Imm: 2}, // skip pc 2 (never decoded)
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 9},
		{Op: isa.HALT},
	}}
	e := New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.blocks == nil || e.blocks[0] == nil {
		t.Fatal("expected a cached block at pc 0 after running")
	}
	cached := e.blocks[0]

	// pc 2 was jumped over: no cached block covers it, so the cache stays.
	e.InvalidateCode(2, 3)
	if e.blocks == nil || e.blocks[0] != cached {
		t.Fatal("invalidating an uncached range dropped the cache")
	}

	// pc 0 is inside the cached block: the whole cache must go.
	e.InvalidateCode(0, 1)
	if e.blocks != nil {
		t.Fatal("invalidating a cached range kept the cache")
	}
}

// TestInvalidateCodeJumpTarget pins invalidation at a forward jump's
// target: the jump ends its block, the target's code lives in a second
// block, and patching only the target must drop the cache so the new
// code runs, while invalidating the skipped gap between the two blocks
// drops nothing.
func TestInvalidateCodeJumpTarget(t *testing.T) {
	p := &isa.Program{Code: []isa.Instruction{
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.JAL, Imm: 3}, // forward to pc 4: ends the block at pc 0
		{Op: isa.HALT},        // skipped, never decoded
		{Op: isa.HALT},
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 7}, // patch target, in the block at pc 4
		{Op: isa.HALT},
	}}
	e := New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[2] != 7 {
		t.Fatalf("pre-patch r2 = %d, want 7", e.State.Regs[2])
	}
	b := e.blocks[0]
	if b == nil {
		t.Fatal("expected a cached block at pc 0 after running")
	}

	// The gap between the blocks (the skipped pcs 2-3) overlaps nothing.
	e.InvalidateCode(2, 4)
	if e.blocks == nil || e.blocks[0] != b {
		t.Fatal("invalidating the skipped gap dropped the cache")
	}

	// pc 4 lives only in the jump target's block; the overlap check must
	// consult every cached block, not just the entry block.
	e.Prog.Code[4] = isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 100}
	e.InvalidateCode(4, 5)
	if e.blocks != nil {
		t.Fatal("invalidating the jump target's code kept the cache")
	}
	resetTo(e)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[2] != 100 {
		t.Fatalf("post-patch r2 = %d, want 100 (stale jump-target decode executed)", e.State.Regs[2])
	}
}

// TestBlockDispatchZeroAllocs pins the steady-state allocation behavior of
// the dispatch loop: once the hot blocks are decoded and the page caches
// are warm, Run must not allocate.
func TestBlockDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	e := New(w.Build(1 << 40))
	// Warm until the decoded-block count is stable: the dispatch loop is
	// allowed to allocate on a cache miss, so measurement starts only once
	// the program's code footprint is fully decoded.
	countBlocks := func() int {
		n := 0
		for _, b := range e.blocks {
			if b != nil {
				n++
			}
		}
		return n
	}
	prev, stable := -1, 0
	for i := 0; i < 200 && stable < 8; i++ {
		if _, err := e.Run(100_000); err != nil {
			t.Fatal(err)
		}
		if n := countBlocks(); n == prev {
			stable++
		} else {
			prev, stable = n, 0
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(50_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("block dispatch allocated %.1f times per Run in steady state, want 0", allocs)
	}
}
