package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spt/internal/asm"
	"spt/internal/checkpoint"
	"spt/internal/emu"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/taint"
	"spt/internal/workloads"
)

// lockstepSchemes are the 8 Figure 7 schemes plus oblivious SPT, whose
// blocked loads wait in the LSQ without counting as delayed.
func lockstepSchemes() []string { return append(fuzz.SchemeNames(), "spt-sdo") }

type traceEvent struct {
	cycle, seq uint64
	stage      string
}

type obsEvent struct {
	kind        byte
	cycle, addr uint64
}

// recorder keeps a run's Tracer and Observer streams.
type recorder struct {
	trace []traceEvent
	obs   []obsEvent
}

func (r *recorder) Event(cycle uint64, di *pipeline.DynInst, stage string) {
	r.trace = append(r.trace, traceEvent{cycle, di.Seq, stage})
}

func (r *recorder) observe(kind byte, cycle, addr uint64) {
	r.obs = append(r.obs, obsEvent{kind, cycle, addr})
}

// outcome is everything a run exposes that the quiet-cycle skip must not
// change.
type outcome struct {
	stats  pipeline.Stats
	dump   string
	policy any
	rec    recorder
	err    string
}

// boot builds a core for one run under pol.
type boot func(pol pipeline.Policy) (*pipeline.Core, error)

func bootNew(cfg pipeline.Config, p *isa.Program) boot {
	return func(pol pipeline.Policy) (*pipeline.Core, error) {
		return pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol)
	}
}

// bootSnapshot boots every run from a private copy of one warm checkpoint.
func bootSnapshot(cfg pipeline.Config, p *isa.Program, cp *checkpoint.Checkpoint) boot {
	return func(pol pipeline.Policy) (*pipeline.Core, error) {
		snap, hier, pred := cp.Materialize(mem.DefaultHierarchyConfig())
		return pipeline.BootFromSnapshot(cfg, p, hier, pol, snap, pred)
	}
}

// simulate runs a fresh core under pol, skipping quiet cycles (RunCtx) or
// stepping every cycle (RunStepped), and records its outcome.
func simulate(t testing.TB, b boot, pol pipeline.Policy, stepped bool, ctx context.Context, maxInsts, maxCycles uint64) outcome {
	t.Helper()
	c, err := b(pol)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	c.Tracer = &o.rec
	c.Observer = o.rec.observe
	run := c.RunCtx
	if stepped {
		run = c.RunStepped
	}
	if err := run(ctx, maxInsts, maxCycles); err != nil {
		o.err = err.Error()
	}
	if o.dump, err = c.StatsRegistry().Dump().JSON(); err != nil {
		t.Fatal(err)
	}
	o.stats = c.Stats
	switch p := pol.(type) {
	case *taint.SPT:
		o.policy = p.Stats
	case *taint.STT:
		o.policy = p.Stats
	}
	return o
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func eventAt[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "end of stream"
}

// diffOutcomes describes the first way skip differs from step, or "".
func diffOutcomes(skip, step outcome) string {
	switch {
	case skip.err != step.err:
		return fmt.Sprintf("error %q, stepping reference %q", skip.err, step.err)
	case !reflect.DeepEqual(skip.stats, step.stats):
		return fmt.Sprintf("Stats differ\n skip %+v\n step %+v", skip.stats, step.stats)
	case !reflect.DeepEqual(skip.policy, step.policy):
		return fmt.Sprintf("policy stats differ\n skip %+v\n step %+v", skip.policy, step.policy)
	}
	if i := firstDiff(skip.rec.trace, step.rec.trace); i >= 0 {
		return fmt.Sprintf("tracer event %d: skip %+v, step %+v", i, eventAt(skip.rec.trace, i), eventAt(step.rec.trace, i))
	}
	if i := firstDiff(skip.rec.obs, step.rec.obs); i >= 0 {
		return fmt.Sprintf("observer event %d: skip %+v, step %+v", i, eventAt(skip.rec.obs, i), eventAt(step.rec.obs, i))
	}
	if skip.dump != step.dump {
		return "stats dumps differ"
	}
	return ""
}

// checkSkip runs one configuration both ways and fails on any difference.
func checkSkip(t testing.TB, where string, b boot, scheme string, maxInsts, maxCycles uint64) {
	t.Helper()
	mk := func() pipeline.Policy {
		pol, err := fuzz.PolicyByName(scheme)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	skip := simulate(t, b, mk(), false, nil, maxInsts, maxCycles)
	step := simulate(t, b, mk(), true, nil, maxInsts, maxCycles)
	if d := diffOutcomes(skip, step); d != "" {
		t.Fatalf("%s: skipping run differs from the stepping reference: %s", where, d)
	}
}

// TestSkipMatchesStep holds RunCtx's quiet-cycle skip to the stepping
// reference on the suite's kernels (a 5k-instruction budget each) and on
// random programs, under every scheme and both attack models, from reset
// and from a warm checkpoint: Stats (histograms included), the stats dump,
// the policy's stats, the Tracer and Observer streams and the returned
// error must all be identical.
func TestSkipMatchesStep(t *testing.T) {
	type prog struct {
		p      *isa.Program
		budget uint64
		skip   uint64 // checkpoint position for the snapshot boot
	}
	var progs []prog
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Build(1 << 40), 5000, 20_000})
	}
	rng := rand.New(rand.NewSource(1616))
	for i := 0; i < 12; i++ {
		p := workloads.RandomProgram(rng.Int63(), 30+rng.Intn(100))
		progs = append(progs, prog{p, 1 << 40, halfway(t, p)})
	}
	for _, pr := range progs {
		t.Run(pr.p.Name, func(t *testing.T) {
			t.Parallel()
			cp, err := checkpoint.Build(pr.p, pr.skip, mem.DefaultHierarchyConfig(), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
				cfg := pipeline.DefaultConfig()
				cfg.Model = model
				boots := map[string]boot{"new": bootNew(cfg, pr.p), "snapshot": bootSnapshot(cfg, pr.p, cp)}
				for _, bootName := range []string{"new", "snapshot"} {
					for _, scheme := range lockstepSchemes() {
						where := fmt.Sprintf("%s/%v/%s", scheme, model, bootName)
						checkSkip(t, where, boots[bootName], scheme, pr.budget, 50_000_000)
					}
				}
			}
		})
	}
}

// halfway returns half the number of instructions p retires before HALT,
// a checkpoint position inside the program.
func halfway(t testing.TB, p *isa.Program) uint64 {
	t.Helper()
	e := emu.New(p)
	if _, err := e.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !e.State.Halted {
		t.Fatalf("%s did not halt", p.Name)
	}
	return e.State.Retired / 2
}

// TestSkipStopsAtMaxCycles cuts runs at every cycle bound across a
// pointer chase's DRAM-miss waits, so some bounds fall inside a skip: the
// run must stop exactly at the bound, as the stepping reference does.
func TestSkipStopsAtMaxCycles(t *testing.T) {
	p := pointerChase(64)
	b := bootNew(pipeline.DefaultConfig(), p)
	midSkip := 0
	prev := ticks(t, b, 250)
	for maxCycles := uint64(250); maxCycles < 700; maxCycles++ {
		where := fmt.Sprintf("maxCycles=%d", maxCycles)
		for _, scheme := range []string{"unsafe", "spt"} {
			checkSkip(t, where, b, scheme, 1<<40, maxCycles)
		}
		// A bound inside a skip ends the run with no Step more than the
		// next bound's run takes.
		next := ticks(t, b, maxCycles+1)
		if next == prev {
			midSkip++
		}
		prev = next
	}
	if midSkip == 0 {
		t.Fatal("no cycle bound fell inside a skip")
	}
}

// pointerChase builds a loop of n dependent loads over a cold chain, one
// cache line per element: each load waits for a DRAM miss.
func pointerChase(n int) *isa.Program {
	b := asm.NewBuilder("chase")
	const base = 0x100000
	quads := make([]uint64, n*8)
	for i := 0; i < n; i++ {
		quads[i*8] = base + uint64((i+1)%n)*64
	}
	b.DataQuads(base, quads)
	b.Movi(1, base)
	b.Movi(2, int64(n))
	b.Label("top")
	b.Ld(1, 1, 0)
	b.OpI(isa.ADDI, 2, 2, -1)
	b.Bne(2, isa.Zero, "top")
	b.Halt()
	return b.MustBuild()
}

// tickCounter counts a policy's Tick calls: one per simulated cycle,
// none per skipped one. It registers the wrapped policy's quiescence
// answer through Attach.
type tickCounter struct {
	pipeline.Policy
	ticks int
}

func (p *tickCounter) Tick() { p.ticks++; p.Policy.Tick() }

// ticks reports how many cycles a skipping STT run simulates before it
// stops at maxCycles.
func ticks(t *testing.T, b boot, maxCycles uint64) int {
	t.Helper()
	pol := &tickCounter{Policy: taint.NewSTT()}
	c, err := b(pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1<<40, maxCycles); err != nil {
		t.Fatal(err)
	}
	return pol.ticks
}

// cancelAt is a policy wrapper that cancels a context from the first Tick
// at or past a given cycle, recording that cycle.
type cancelAt struct {
	tickCounter
	core     *pipeline.Core
	at       uint64
	cancel   context.CancelFunc
	canceled uint64
}

func (p *cancelAt) Attach(c *pipeline.Core) { p.core = c; p.Policy.Attach(c) }

func (p *cancelAt) Tick() {
	p.tickCounter.Tick()
	if p.canceled == 0 && p.core.Cycle() >= p.at {
		p.canceled = p.core.Cycle()
		p.cancel()
	}
}

// TestSkipHonorsCancellation cancels a skipping run mid-way: it must
// abort at the next context poll, within CtxPollCycles cycles of the
// cancel, in exactly the state the stepping reference has at that cycle.
func TestSkipHonorsCancellation(t *testing.T) {
	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b := bootNew(pipeline.DefaultConfig(), w.Build(1<<40))
	for _, at := range []uint64{5000, 20_001, 33_333} {
		ctx, cancel := context.WithCancel(context.Background())
		pol := &cancelAt{tickCounter: tickCounter{Policy: taint.NewSPT(taint.DefaultSPTConfig())}, at: at, cancel: cancel}
		skip := simulate(t, b, pol, false, ctx, 1<<40, 1<<40)
		cancel()
		if skip.err != context.Canceled.Error() {
			t.Fatalf("cancel at %d: run returned %q, want %q", at, skip.err, context.Canceled)
		}
		stop := skip.stats.Cycles
		if stop%pipeline.CtxPollCycles != 0 || stop < pol.canceled || stop-pol.canceled > pipeline.CtxPollCycles {
			t.Fatalf("cancel at cycle %d: aborted at cycle %d, not at the next poll", pol.canceled, stop)
		}
		// The reference stops at the same cycle through its cycle bound.
		ref := &tickCounter{Policy: taint.NewSPT(taint.DefaultSPTConfig())}
		step := simulate(t, b, ref, true, nil, 1<<40, stop)
		step.err = skip.err
		skip.policy, step.policy = pol.Policy.(*taint.SPT).Stats, ref.Policy.(*taint.SPT).Stats
		if d := diffOutcomes(skip, step); d != "" {
			t.Fatalf("cancel at %d: aborted run differs from the stepping reference at cycle %d: %s", at, stop, d)
		}
	}
}

// blockMemory is a test policy that never lets a memory instruction
// execute and reports every Tick quiet, so a program whose oldest
// instruction is a load livelocks.
type blockMemory struct{ ticks int }

func (*blockMemory) Attach(c *pipeline.Core)                     { c.TickWrote = func() bool { return false } }
func (*blockMemory) OnRename(*pipeline.DynInst)                  {}
func (*blockMemory) OnSquash(*pipeline.DynInst)                  {}
func (*blockMemory) OnRetire(*pipeline.DynInst)                  {}
func (*blockMemory) OnVP(*pipeline.DynInst)                      {}
func (*blockMemory) OnLoadComplete(*pipeline.DynInst)            {}
func (*blockMemory) MayExecuteMem(*pipeline.DynInst) bool        { return false }
func (*blockMemory) MayResolveCF(*pipeline.DynInst) bool         { return true }
func (*blockMemory) MaySquashOnViolation(*pipeline.DynInst) bool { return true }
func (p *blockMemory) Tick()                                     { p.ticks++ }

// TestLivelockReported runs a program that can never retire its load: the
// skipping run must report the livelock at the same cycle as the stepping
// reference, after simulating far fewer cycles.
func TestLivelockReported(t *testing.T) {
	p := asm.MustAssemble("stuck", `
  movi r1, 0x4000
  addi r2, r1, 8
  ld r3, 0(r1)
  addi r4, r3, 1
  halt
`)
	b := bootNew(pipeline.DefaultConfig(), p)
	var skipPol, stepPol blockMemory
	skip := simulate(t, b, &skipPol, false, nil, 1<<40, 1<<40)
	step := simulate(t, b, &stepPol, true, nil, 1<<40, 1<<40)
	if d := diffOutcomes(skip, step); d != "" {
		t.Fatalf("skipping run differs from the stepping reference: %s", d)
	}
	if want := fmt.Sprintf("pipeline: livelock at cycle %d ", step.stats.Cycles); !strings.HasPrefix(skip.err, want) {
		t.Fatalf("run returned %q, want a livelock report at cycle %d", skip.err, step.stats.Cycles)
	}
	if skipPol.ticks*100 > stepPol.ticks {
		t.Fatalf("skipping run simulated %d cycles of the stepping reference's %d", skipPol.ticks, stepPol.ticks)
	}
}

// FuzzSkipMatchesStep holds the quiet-cycle skip to the stepping reference
// on random programs under any scheme and either attack model, booted cold
// or from a warm checkpoint halfway through the program.
func FuzzSkipMatchesStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, scheme uint8, spectre, fromSnapshot bool) {
		schemes := lockstepSchemes()
		name := schemes[int(scheme)%len(schemes)]
		p := workloads.RandomProgram(seed, 20+int(size)%120)
		cfg := pipeline.DefaultConfig()
		if spectre {
			cfg.Model = pipeline.Spectre
		}
		b := bootNew(cfg, p)
		if fromSnapshot {
			cp, err := checkpoint.Build(p, halfway(t, p), mem.DefaultHierarchyConfig(), true)
			if err != nil {
				t.Fatal(err)
			}
			b = bootSnapshot(cfg, p, cp)
		}
		checkSkip(t, fmt.Sprintf("%s/%s/%v/snapshot=%v", p.Name, name, cfg.Model, fromSnapshot), b, name, 1<<40, 50_000_000)
	})
}
