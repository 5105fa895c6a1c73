// Acceptance tests for checkpointed fast-forward and sampled simulation:
// prefix-executed-once accounting, store-vs-direct equivalence, and the
// sampled estimator's accuracy against a full detailed run.
package spt_test

import (
	"math"
	"reflect"
	"testing"

	"spt"
)

// TestCheckpointedGridRunsPrefixOnce: a schemes x models grid over a shared
// store executes each workload's functional prefix exactly once — the
// Builds counter is the proof — and every cell still simulates its own
// detailed region.
func TestCheckpointedGridRunsPrefixOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	workloadsList := []string{"mcf", "gcc"}
	store := spt.NewCheckpointStore("")
	var jobs []spt.Job
	for _, w := range workloadsList {
		for _, s := range []spt.Scheme{spt.UnsafeBaseline, spt.STT, spt.SPTFull} {
			for _, m := range spt.AttackModels() {
				jobs = append(jobs, spt.Job{Workload: w, Scheme: s, Model: m, Width: 3, Budget: 5_000, Skip: 10_000})
			}
		}
	}
	res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: 8, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if int(st.Builds) != len(workloadsList) {
		t.Errorf("functional passes = %d, want %d (one per workload prefix, not per cell)", st.Builds, len(workloadsList))
	}
	if want := uint64(len(jobs) - len(workloadsList)); st.MemHits != want {
		t.Errorf("memory hits = %d, want %d", st.MemHits, want)
	}
	for _, j := range jobs {
		r := res[j]
		if r.FastForwarded != j.Skip {
			t.Errorf("%v: FastForwarded = %d, want %d", j, r.FastForwarded, j.Skip)
		}
		if r.Instructions == 0 || r.Cycles == 0 {
			t.Errorf("%v: empty detailed region (%d insts, %d cycles)", j, r.Instructions, r.Cycles)
		}
	}
}

// TestCheckpointStoreDoesNotChangeResults: the same checkpointed run is
// bit-identical whether checkpoints come from a shared store or are built
// directly, and repeatable run to run.
func TestCheckpointStoreDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opt := spt.Options{Scheme: spt.SPTFull, MaxInstructions: 6_000, SkipInstructions: 12_000}
	direct, err := spt.Run("gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	stored := opt
	stored.Checkpoints = spt.NewCheckpointStore(t.TempDir())
	viaStore, err := spt.Run("gcc", stored)
	if err != nil {
		t.Fatal(err)
	}
	// Same store again: now served from memory, still identical.
	again, err := spt.Run("gcc", stored)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*spt.Result{viaStore, again} {
		got, want := *r, *direct
		got.Host, want.Host = spt.HostStats{}, spt.HostStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("checkpoint store changed simulation results")
		}
	}
}

// TestSampledAccuracy is the estimator acceptance: on gcc, sampling with
// at most one third of the budget simulated in detail estimates the full
// detailed run's IPC within 5%.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const budget = 60_000
	spec := spt.SampleSpec{Intervals: 6, Warmup: 1_500, Detail: 1_500}
	full, err := spt.Run("gcc", spt.Options{Scheme: spt.SPTFull, MaxInstructions: budget})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := spt.Run("gcc", spt.Options{Scheme: spt.SPTFull, MaxInstructions: budget, Sample: spec})
	if err != nil {
		t.Fatal(err)
	}
	detailed := sampled.Sampled.DetailInstructions + sampled.Sampled.WarmupInstructions
	if detailed > budget/3 {
		t.Fatalf("sampled run simulated %d instructions in detail, budget/3 = %d", detailed, budget/3)
	}
	if sampled.FastForwarded+detailed != budget {
		t.Errorf("FastForwarded %d + detailed %d != budget %d", sampled.FastForwarded, detailed, budget)
	}
	relErr := math.Abs(sampled.IPC()-full.IPC()) / full.IPC()
	t.Logf("full IPC %.4f, sampled IPC %.4f (+-%.4f CPI at 95%%), relative error %.2f%%, detail fraction %.0f%%",
		full.IPC(), sampled.IPC(), sampled.Sampled.CPIConfidence95, 100*relErr, 100*float64(detailed)/budget)
	if relErr > 0.05 {
		t.Errorf("sampled IPC %.4f vs full %.4f: relative error %.1f%% exceeds 5%%",
			sampled.IPC(), full.IPC(), 100*relErr)
	}
	if got := len(sampled.Sampled.IntervalCPI); got != spec.Intervals {
		t.Errorf("measured %d intervals, want %d", got, spec.Intervals)
	}
}

// TestSampleSpecValidation pins the option-combination errors.
func TestSampleSpecValidation(t *testing.T) {
	bad := []spt.Options{
		{Sample: spt.SampleSpec{Intervals: 2}, SkipInstructions: 100},                            // mutually exclusive
		{Sample: spt.SampleSpec{Intervals: 2}, WarmupInstructions: 100},                          // sampled has its own warmup
		{Sample: spt.SampleSpec{Intervals: 4, Warmup: 900, Detail: 200}, MaxInstructions: 4_000}, // window > interval
	}
	for i, o := range bad {
		if _, err := spt.Run("gcc", o); err == nil {
			t.Errorf("case %d: invalid sample options accepted", i)
		}
	}
}

// TestSampledGridOverStoreMatchesCells: a sampled grid whose cells take
// their windows from one shared store walks each workload once, and every
// cell is bit-identical (Result and stats dump) to the same cell run alone
// on its own private walker, at any grid and window concurrency.
func TestSampledGridOverStoreMatchesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	kernels := []string{"mcf", "gcc", "chacha20"}
	sample := spt.SampleSpec{Intervals: 4, Warmup: 100, Detail: 400}
	var jobs []spt.Job
	for _, w := range kernels {
		for _, s := range []spt.Scheme{spt.UnsafeBaseline, spt.SPTFull, spt.STT} {
			for _, m := range spt.AttackModels() {
				jobs = append(jobs, spt.Job{Workload: w, Scheme: s, Model: m, Width: 3, Budget: 40_000, Sample: sample})
			}
		}
	}
	type cell struct {
		res  spt.Result
		dump string
	}
	split := func(r *spt.Result) cell {
		dump, err := r.Stats.JSON()
		if err != nil {
			t.Fatal(err)
		}
		c := cell{res: *r, dump: dump}
		c.res.Host = spt.HostStats{}
		return c
	}
	alone := make(map[spt.Job]cell, len(jobs))
	for _, j := range jobs {
		r, err := spt.Run(j.Workload, spt.Options{
			Scheme: j.Scheme, Model: j.Model, UntaintBroadcastWidth: j.Width,
			MaxInstructions: j.Budget, Sample: j.Sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		alone[j] = split(r)
	}
	for _, gridJobs := range []int{1, 8} {
		for _, windowJobs := range []int{1, 4} {
			store := spt.NewCheckpointStore("")
			res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: gridJobs, WindowJobs: windowJobs, Checkpoints: store})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				got := split(res[j])
				if !reflect.DeepEqual(got.res, alone[j].res) {
					t.Errorf("Jobs %d, WindowJobs %d: %v: result differs from the cell run alone", gridJobs, windowJobs, j)
				}
				if got.dump != alone[j].dump {
					t.Errorf("Jobs %d, WindowJobs %d: %v: stats dump differs from the cell run alone", gridJobs, windowJobs, j)
				}
			}
			if b := store.Stats().Builds; b != uint64(len(kernels)) {
				t.Errorf("Jobs %d, WindowJobs %d: Builds = %d, want %d (one walk per workload)", gridJobs, windowJobs, b, len(kernels))
			}
		}
	}
}

// TestSampledFigure7WalksEachKernelOnce: the sampled Figure 7 grid at the
// benchmark's size (19 kernels x 8 schemes, 250k budget, sample 4:100:400)
// over a supplied store walks each kernel's prefix once: 19 passes, not
// 152.
func TestSampledFigure7WalksEachKernelOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	store := spt.NewCheckpointStore("")
	fig, err := spt.RunFigure7(spt.Futuristic, spt.EvalOptions{
		Budget:      250_000,
		Sample:      spt.SampleSpec{Intervals: 4, Warmup: 100, Detail: 400},
		Checkpoints: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := store.Stats().Builds; b != uint64(len(fig.Rows)) {
		t.Errorf("Builds = %d for %d kernels x %d schemes, want %d", b, len(fig.Rows), len(fig.Schemes), len(fig.Rows))
	}
}
