package pipeline_test

import (
	"math/rand"
	"testing"

	"spt/internal/asm"
	"spt/internal/emu"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

func newCore(t *testing.T, p *isa.Program, model pipeline.AttackModel) *pipeline.Core {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	c, err := pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runToHalt(t *testing.T, c *pipeline.Core) {
	t.Helper()
	if err := c.Run(50_000_000, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Finished() {
		t.Fatal("program did not finish")
	}
}

// checkAgainstEmulator runs p on both the OoO core and the functional
// emulator and requires identical final architectural state.
func checkAgainstEmulator(t *testing.T, p *isa.Program, model pipeline.AttackModel) *pipeline.Core {
	t.Helper()
	c := newCore(t, p, model)
	runToHalt(t, c)

	e := emu.New(p)
	if _, err := e.Run(60_000_000); err != nil {
		t.Fatal(err)
	}
	if !e.State.Halted {
		t.Fatal("emulator did not halt")
	}
	if c.Stats.Retired != e.State.Retired {
		t.Errorf("retired %d instructions, emulator executed %d", c.Stats.Retired, e.State.Retired)
	}
	coreRegs := c.ArchRegs()
	for r := 0; r < isa.NumRegs; r++ {
		if coreRegs[r] != e.State.Regs[r] {
			t.Errorf("r%d = %#x, emulator has %#x", r, coreRegs[r], e.State.Regs[r])
		}
	}
	// Compare the memory the program touched.
	for _, seg := range p.Data {
		for i := range seg.Bytes {
			addr := seg.Addr + uint64(i)
			if got, want := c.Mem.ByteAt(addr), e.State.Mem.ByteAt(addr); got != want {
				t.Fatalf("mem[%#x] = %#x, emulator has %#x", addr, got, want)
			}
		}
	}
	return c
}

func TestSimpleLoopMatchesEmulator(t *testing.T) {
	p := asm.MustAssemble("loop", `
  movi r1, 1000
  movi r2, 0
top:
  add r2, r2, r1
  addi r1, r1, -1
  bne r1, r0, top
  halt
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	if c.Stats.IPC() < 1.0 {
		t.Errorf("unsafe baseline IPC = %.2f, expected > 1 for a tight loop", c.Stats.IPC())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	p := asm.MustAssemble("stlf", `
  movi r1, 0x4000
  movi r2, 1234
  st r2, 0(r1)
  ld r3, 0(r1)
  addi r4, r3, 1
  halt
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	if c.Stats.STLForwards == 0 {
		t.Error("expected at least one store-to-load forward")
	}
}

func TestNarrowForwarding(t *testing.T) {
	p := asm.MustAssemble("narrow", `
  movi r1, 0x4000
  movi r2, 0x1122334455667788
  st r2, 0(r1)
  ldb r3, 3(r1)
  ldw r4, 4(r1)
  halt
`)
	checkAgainstEmulator(t, p, pipeline.Futuristic)
}

func TestPartialOverlapWaitsForStore(t *testing.T) {
	// Byte store followed by a wider load overlapping it: the load cannot
	// forward and must wait for the store to retire.
	p := asm.MustAssemble("partial", `
  movi r1, 0x4000
  movi r2, 0xAB
  stb r2, 2(r1)
  ld r3, 0(r1)
  halt
`)
	checkAgainstEmulator(t, p, pipeline.Futuristic)
}

func TestBranchMispredictRecovery(t *testing.T) {
	// Data-dependent unpredictable-ish branch pattern.
	p := asm.MustAssemble("misp", `
  movi r1, 200
  movi r2, 0
  movi r5, 12345
top:
  ; xorshift-style "random" bit
  shli r6, r5, 13
  xor r5, r5, r6
  shri r6, r5, 7
  xor r5, r5, r6
  andi r6, r5, 1
  beq r6, r0, skip
  addi r2, r2, 7
skip:
  addi r1, r1, -1
  bne r1, r0, top
  halt
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	if c.Stats.BranchMispredicts == 0 {
		t.Error("expected some mispredictions on pseudo-random branches")
	}
}

func TestCallReturnThroughRAS(t *testing.T) {
	p := asm.MustAssemble("calls", `
  movi r10, 0
  movi r5, 50
top:
  jal ra, addone
  addi r5, r5, -1
  bne r5, r0, top
  halt
addone:
  addi r10, r10, 1
  jalr r0, 0(ra)
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	regs := c.ArchRegs()
	if regs[10] != 50 {
		t.Fatalf("r10 = %d, want 50", regs[10])
	}
}

func TestMemoryDependenceViolation(t *testing.T) {
	// A store whose address arrives late (dependent on a slow load) aliases
	// a younger load: the load speculates, then squashes.
	p := asm.MustAssemble("violation", `
  movi r1, 0x4000
  movi r9, 0x5000
  movi r2, 0x4000
  st r2, 0(r9)        ; mem[0x5000] = 0x4000
  movi r4, 77
  st r4, 0(r1)        ; mem[0x4000] = 77
  movi r3, 0
  ld r5, 0(r9)        ; r5 = 0x4000 (slow: cold miss)
  movi r6, 99
  st r6, 0(r5)        ; store to 0x4000, address known late
  ld r7, 0(r1)        ; aliases! speculates to 77, must squash, re-read 99
  add r8, r7, r0
  halt
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	regs := c.ArchRegs()
	if regs[7] != 99 {
		t.Fatalf("r7 = %d, want 99 (violation not repaired)", regs[7])
	}
	if c.Stats.MemViolations == 0 {
		t.Error("expected a memory-dependence violation")
	}
}

func TestIndirectJumpTable(t *testing.T) {
	p := asm.MustAssemble("indirect", `
  movi r7, 20
  movi r10, 0
top:
  andi r2, r7, 1
  movi r3, 11       ; even -> pc 11 (addtwo)
  movi r4, 13       ; odd  -> pc 13 (addfive)
  beq r2, r0, even
  mov r3, r4
even:
  jalr ra, 0(r3)
  addi r7, r7, -1
  bne r7, r0, top
  halt
addtwo:
  addi r10, r10, 2
  jalr r0, 0(ra)
addfive:
  addi r10, r10, 5
  jalr r0, 0(ra)
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	regs := c.ArchRegs()
	if regs[10] != 10*2+10*5 {
		t.Fatalf("r10 = %d, want 70", regs[10])
	}
}

func TestZeroRegisterNeverWritten(t *testing.T) {
	p := asm.MustAssemble("zero", `
  movi r0, 99
  addi r0, r0, 5
  mov r1, r0
  halt
`)
	c := checkAgainstEmulator(t, p, pipeline.Futuristic)
	if c.ArchRegs()[0] != 0 || c.ArchRegs()[1] != 0 {
		t.Fatal("zero register corrupted")
	}
}

func TestRandomProgramsMatchEmulatorFuturistic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		p := workloads.RandomProgram(rng.Int63(), 40+rng.Intn(120))
		checkAgainstEmulator(t, p, pipeline.Futuristic)
		if t.Failed() {
			t.Fatalf("trial %d failed (program %s)", trial, p.Name)
		}
	}
}

func TestRandomProgramsMatchEmulatorSpectre(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		p := workloads.RandomProgram(rng.Int63(), 40+rng.Intn(120))
		checkAgainstEmulator(t, p, pipeline.Spectre)
		if t.Failed() {
			t.Fatalf("trial %d failed (program %s)", trial, p.Name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := pipeline.DefaultConfig()
	bad.PhysRegs = 10
	if _, err := pipeline.New(bad, asm.MustAssemble("x", "halt"), mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil); err == nil {
		t.Fatal("accepted impossible config")
	}
	// The limit is the 32 architectural registers plus half the ROB.
	short := pipeline.DefaultConfig()
	short.ROBSize = 192
	short.PhysRegs = 127
	const want = "pipeline: 127 physical registers cannot cover 32 architectural + 96 in-flight; need at least 128"
	if err := short.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate() = %v, want %q", err, want)
	}
	short.PhysRegs++
	if err := short.Validate(); err != nil {
		t.Fatalf("Validate() at the minimum: %v", err)
	}
	bad2 := pipeline.DefaultConfig()
	bad2.ROBSize = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("accepted zero ROB")
	}
	bad3 := pipeline.DefaultConfig()
	bad3.FetchWidth = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("accepted zero width")
	}
}

func TestLivelockDetection(t *testing.T) {
	// An infinite loop must hit the cycle bound, not hang.
	p := asm.MustAssemble("inf", "top:\n jal r0, top\n halt")
	c := newCore(t, p, pipeline.Futuristic)
	err := c.Run(1<<62, 100_000)
	if err != nil {
		t.Fatalf("bounded run errored: %v", err)
	}
	if c.Finished() {
		t.Fatal("infinite loop finished?!")
	}
	if c.Stats.Cycles < 100_000 {
		t.Fatalf("stopped early: %d cycles", c.Stats.Cycles)
	}
}

func TestColdMissDominatesTightPointerChase(t *testing.T) {
	// Build a pointer chain; chasing it is latency-bound, so IPC must be
	// well under 1.
	b := asm.NewBuilder("chase")
	const n = 4096
	base := uint64(0x100000)
	quads := make([]uint64, n)
	perm := rand.New(rand.NewSource(5)).Perm(n)
	// next[i] = address of next element (a random cycle).
	for i := 0; i < n; i++ {
		quads[perm[i]] = base + uint64(perm[(i+1)%n])*8
	}
	b.DataQuads(base, quads)
	b.Movi(1, int64(base))
	b.Movi(2, 3000)
	b.Label("top")
	b.Ld(1, 1, 0)
	b.OpI(isa.ADDI, 2, 2, -1)
	b.Bne(2, isa.Zero, "top")
	b.Halt()
	p := b.MustBuild()

	c := newCore(t, p, pipeline.Futuristic)
	runToHalt(t, c)
	if ipc := c.Stats.IPC(); ipc > 0.5 {
		t.Fatalf("pointer chase IPC = %.2f, expected memory-bound (< 0.5)", ipc)
	}
}

func TestVPStatsSane(t *testing.T) {
	p := asm.MustAssemble("vp", `
  movi r1, 100
top:
  addi r1, r1, -1
  bne r1, r0, top
  halt
`)
	for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		c := newCore(t, p, model)
		runToHalt(t, c)
		if c.Stats.Retired == 0 || c.Stats.Cycles == 0 {
			t.Fatalf("%v: empty stats", model)
		}
	}
}

// TestNarrowConfigsMatchEmulator: correctness must not depend on the
// default geometry. Tiny windows and widths stress structural-hazard
// paths (ROB/RS/LSQ full, single-issue, one mem port).
func TestNarrowConfigsMatchEmulator(t *testing.T) {
	configs := []pipeline.Config{
		func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.FetchWidth, c.RenameWidth, c.IssueWidth, c.RetireWidth = 1, 1, 1, 1
			c.ALUs, c.MemPorts = 1, 1
			return c
		}(),
		func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.ROBSize, c.RSSize, c.LQSize, c.SQSize = 8, 4, 2, 2
			c.PhysRegs = 64
			return c
		}(),
		func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.FetchBufferSize, c.FrontendDepth = 2, 12
			return c
		}(),
	}
	rng := rand.New(rand.NewSource(606))
	for ci, cfg := range configs {
		for trial := 0; trial < 8; trial++ {
			p := workloads.RandomProgram(rng.Int63(), 50)
			e := emu.New(p)
			if _, err := e.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			c, err := pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(20_000_000, 400_000_000); err != nil {
				t.Fatalf("config %d trial %d: %v", ci, trial, err)
			}
			if !c.Finished() {
				t.Fatalf("config %d trial %d: did not finish", ci, trial)
			}
			regs := c.ArchRegs()
			for r := 0; r < isa.NumRegs; r++ {
				if regs[r] != e.State.Regs[r] {
					t.Fatalf("config %d trial %d: r%d = %#x, want %#x", ci, trial, r, regs[r], e.State.Regs[r])
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("config %d trial %d: %v", ci, trial, err)
			}
		}
	}
}
