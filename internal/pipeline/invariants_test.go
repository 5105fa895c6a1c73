package pipeline_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spt/internal/fuzz"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

// TestInvariantsHoldEveryCycle validates the core's structural invariants
// as random programs run, under both attack models and the unsafe,
// secure, SPT and STT schemes — catching free-list leaks, RAT corruption,
// stale queue entries and late completions that end-of-run architectural
// checks can miss. One pass steps cycle by cycle (checking every 64th
// cycle, since a check is costly). A second advances through Run, one
// retirement or 37 cycles at a time, so the invariants are also checked
// right after skipped stretches, including ones the cycle bound cuts.
func TestInvariantsHoldEveryCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 8; trial++ {
		p := workloads.RandomProgram(rng.Int63(), 60)
		for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
			cfg := pipeline.DefaultConfig()
			cfg.Model = model
			for _, scheme := range []string{"unsafe", "secure", "spt", "stt"} {
				where := fmt.Sprintf("trial %d (%s) %v %s", trial, p.Name, model, scheme)
				newCore := func() *pipeline.Core {
					pol, err := fuzz.PolicyByName(scheme)
					if err != nil {
						t.Fatal(err)
					}
					c, err := pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol)
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				c := newCore()
				for i := 0; i < 500_000 && !c.Finished(); i++ {
					c.Step()
					if i%64 == 0 {
						if err := c.CheckInvariants(); err != nil {
							t.Fatalf("%s: cycle %d: %v", where, c.Cycle(), err)
						}
					}
				}
				if !c.Finished() {
					t.Fatalf("%s: did not finish", where)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: after finish: %v", where, err)
				}

				c = newCore()
				for !c.Finished() && c.Cycle() < 500_000 {
					if err := c.Run(c.Stats.Retired+1, c.Cycle()+37); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("%s: Run to cycle %d: %v", where, c.Cycle(), err)
					}
				}
				if !c.Finished() {
					t.Fatalf("%s: did not finish through Run", where)
				}
			}
		}
	}
}

// TestNoPhysRegLeakAfterDrain: after a program retires completely, all
// physical registers outside the architectural mapping are free again.
func TestNoPhysRegLeakAfterDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	p := workloads.RandomProgram(rng.Int63(), 120)
	c, err := pipeline.New(pipeline.DefaultConfig(), p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10_000_000, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ROBLen(); got != 0 {
		// HALT retires and stops the clock; wrong-path leftovers younger
		// than HALT may remain but must never have retired.
		for i := 0; i < c.ROBLen(); i++ {
			if di := c.ROBAt(i); di.Retired {
				t.Fatalf("retired instruction seq %d stuck in ROB", di.Seq)
			}
		}
		_ = got
	}
}
