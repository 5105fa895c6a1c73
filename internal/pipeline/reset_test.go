package pipeline_test

import (
	"math/rand"
	"testing"

	"spt/internal/checkpoint"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

// bootReset boots every run by resetting c, the reused core under test.
// Right after the reset, c must pass CheckInvariants and its register file
// must read as a new core's does.
func bootReset(t testing.TB, c *pipeline.Core, cfg pipeline.Config, p *isa.Program) boot {
	return func(pol pipeline.Policy) (*pipeline.Core, error) {
		t.Helper()
		if err := c.Reset(cfg, p, pol); err != nil {
			return nil, err
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: right after Reset: %v", p.Name, err)
		}
		fresh, err := bootNew(cfg, p)(nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := pipeline.PhysReg(0); int(r) < cfg.PhysRegs; r++ {
			if c.RegReady(r) != fresh.RegReady(r) || c.RegValue(r) != fresh.RegValue(r) {
				t.Fatalf("%s: right after Reset, p%d reads (%d, ready %v), a new core's (%d, ready %v)",
					p.Name, r, c.RegValue(r), c.RegReady(r), fresh.RegValue(r), fresh.RegReady(r))
			}
		}
		return c, nil
	}
}

// resetCase is one run in a reuse sequence.
type resetCase struct {
	p      *isa.Program
	budget uint64
	scheme string
	model  pipeline.AttackModel
}

// checkReset runs rc on c after a Reset and on a new core, and fails on any
// difference: Stats with histograms, the stats dump, the policy's stats,
// the Tracer and Observer streams and the returned error.
func checkReset(t testing.TB, c *pipeline.Core, rc resetCase) {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Model = rc.model
	mk := func() pipeline.Policy {
		pol, err := fuzz.PolicyByName(rc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	got := simulate(t, bootReset(t, c, cfg, rc.p), mk(), false, nil, rc.budget, 50_000_000)
	want := simulate(t, bootNew(cfg, rc.p), mk(), false, nil, rc.budget, 50_000_000)
	if d := diffOutcomes(got, want); d != "" {
		t.Fatalf("%s/%s/%v: run after Reset differs from a new core's: %s", rc.p.Name, rc.scheme, rc.model, d)
	}
}

// snapshotCore boots a core for p from a warm checkpoint halfway through
// it, with private copies of the checkpoint's hierarchy and predictor, and
// runs it under scheme: a core whose Reset must clear warm state.
func snapshotCore(t testing.TB, p *isa.Program, scheme string) *pipeline.Core {
	t.Helper()
	cp, err := checkpoint.Build(p, halfway(t, p), mem.DefaultHierarchyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := fuzz.PolicyByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	snap, hier, pred := cp.Materialize(mem.DefaultHierarchyConfig())
	c, err := pipeline.BootFromSnapshot(pipeline.DefaultConfig(), p, hier, pol, snap, pred)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1<<40, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResetMatchesNew pushes random sequences of runs through one reused
// core and through new cores: programs from the suite's kernels (at a
// 2000-instruction budget), RandomProgram and the leakage fuzzer's
// generated gadgets, under every scheme and both attack models. Now and
// then the reused core is replaced by one booted from a warm checkpoint
// and run, so Reset also starts from a core whose last run was a
// BootFromSnapshot run.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(2424))
	var progs []resetCase
	for _, w := range workloads.All() {
		progs = append(progs, resetCase{p: w.Build(1 << 40), budget: 2000})
	}
	for i := 0; i < 8; i++ {
		progs = append(progs, resetCase{p: workloads.RandomProgram(rng.Int63(), 30+rng.Intn(100)), budget: 1 << 40})
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, resetCase{p: fuzz.Generate(seed).Prog, budget: 1 << 40})
	}
	schemes := lockstepSchemes()
	models := []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic}
	pick := func() resetCase {
		rc := progs[rng.Intn(len(progs))]
		rc.scheme = schemes[rng.Intn(len(schemes))]
		rc.model = models[rng.Intn(len(models))]
		return rc
	}
	// Each sequence starts from a core that ran a program: built new, or
	// (every other sequence) booted from a warm checkpoint, and such a core
	// also replaces the reused one halfway through.
	lastRun := func(seq int) *pipeline.Core {
		if seq%2 == 1 {
			return snapshotCore(t, workloads.RandomProgram(rng.Int63(), 60), schemes[rng.Intn(len(schemes))])
		}
		first := pick()
		c, err := bootNew(pipeline.DefaultConfig(), first.p)(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(first.budget, 50_000_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for seq := 0; seq < 6; seq++ {
		c := lastRun(seq)
		for run := 0; run < 16; run++ {
			if run == 8 {
				c = lastRun(seq)
			}
			checkReset(t, c, pick())
		}
	}
}

// FuzzResetMatchesNew resets a core that last ran one random program —
// booted new or from a warm checkpoint — for another random program under
// any scheme and either attack model, and holds the run to a new core's.
func FuzzResetMatchesNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, prevSeed, seed int64, size, scheme uint8, spectre, prevSnapshot bool) {
		schemes := lockstepSchemes()
		name := schemes[int(scheme)%len(schemes)]
		prev := workloads.RandomProgram(prevSeed, 20+int(size/2)%60)
		var c *pipeline.Core
		if prevSnapshot {
			c = snapshotCore(t, prev, name)
		} else {
			var err error
			if c, err = bootNew(pipeline.DefaultConfig(), prev)(nil); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(1<<40, 50_000_000); err != nil {
				t.Fatal(err)
			}
		}
		rc := resetCase{p: workloads.RandomProgram(seed, 20+int(size)%120), budget: 1 << 40, scheme: name, model: pipeline.Futuristic}
		if spectre {
			rc.model = pipeline.Spectre
		}
		checkReset(t, c, rc)
	})
}
