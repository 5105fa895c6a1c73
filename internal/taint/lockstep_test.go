package taint_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/taint"
	"spt/internal/workloads"
)

// TestWorklistsMatchRescan runs every untaint engine in lockstep with the
// per-cycle ROB rescan it replaced (taint.NewLockstep), on every cycle of
// the suite kernels (a short budget each) and of random programs, under
// both attack models. The lockstep run must also end exactly where an
// unchecked run of the same policy does.
func TestWorklistsMatchRescan(t *testing.T) {
	configs := policies()
	configs["spt-width1"] = func() pipeline.Policy {
		return taint.NewSPT(taint.SPTConfig{Method: taint.UntaintBwd, Shadow: taint.ShadowL1, BroadcastWidth: 1})
	}
	configs["spt-oblivious"] = func() pipeline.Policy {
		return taint.NewSPT(taint.SPTConfig{
			Method: taint.UntaintBwd, Shadow: taint.ShadowL1, BroadcastWidth: 3,
			Protect: taint.ObliviousExecution,
		})
	}
	names := make([]string, 0, len(configs))
	for name := range configs {
		if taint.NewLockstep(configs[name](), nil) != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	type prog struct {
		p      *isa.Program
		budget uint64
	}
	var progs []prog
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Build(1 << 40), 1500})
	}
	rng := rand.New(rand.NewSource(1313))
	for i := 0; i < 64; i++ {
		progs = append(progs, prog{workloads.RandomProgram(rng.Int63(), 30+rng.Intn(80)), 1 << 40})
	}

	for _, name := range names {
		for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
			for _, pr := range progs {
				where := fmt.Sprintf("%s/%v/%s", name, model, pr.p.Name)
				plain, plainCore := runLockstep(t, where, pr.p, pr.budget, model, configs[name](), false)
				checked, checkedCore := runLockstep(t, where, pr.p, pr.budget, model, configs[name](), true)
				if plainCore.Stats.Cycles != checkedCore.Stats.Cycles || !reflect.DeepEqual(policyStats(plain), policyStats(checked)) {
					t.Fatalf("%s: the lockstep run diverged from the plain run: %d cycles %+v, want %d cycles %+v",
						where, checkedCore.Stats.Cycles, policyStats(checked), plainCore.Stats.Cycles, policyStats(plain))
				}
			}
		}
	}
}

// runLockstep runs p for budget instructions under pol, checked every
// cycle against the rescan when lockstep is set.
func runLockstep(t *testing.T, where string, p *isa.Program, budget uint64, model pipeline.AttackModel, pol pipeline.Policy, lockstep bool) (pipeline.Policy, *pipeline.Core) {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	var c *pipeline.Core
	run := pol
	if lockstep {
		run = taint.NewLockstep(pol, func(format string, args ...any) {
			t.Fatalf("%s cycle %d: "+format, append([]any{where, c.Cycle()}, args...)...)
		})
	}
	c, err := pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), run)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(budget, 50_000_000); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return pol, c
}

func policyStats(pol pipeline.Policy) any {
	switch p := pol.(type) {
	case *taint.SPT:
		return p.Stats
	case *taint.STT:
		return p.Stats
	}
	return nil
}
