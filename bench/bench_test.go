package main

import (
	"reflect"
	"regexp"
	"testing"

	"spt"
	"spt/internal/checkpoint"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/predictor"
	"spt/internal/stats"
	"spt/internal/workloads"
)

// toy drives every workload through the same code as full, small enough
// for the whole test suite to take a few seconds.
var toy = sizes{
	Kernels:       []string{"mcf", "chacha20"},
	DetailBudget:  2_000,
	CkptSkip:      20_000,
	CkptBudget:    1_000,
	SampledBudget: 40_000,
	Sample:        spt.SampleSpec{Intervals: 2, Warmup: 200, Detail: 400},
	Generations:   1,
	PerGen:        4,
	VerifyCount:   2,
	CorpusDir:     "../testdata/fuzz",
	ProbeInsts:    20_000,
	ReplayInsts:   5_000,
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadList {
		check(w.name)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json describes exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %q, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads listed, %d run", len(bf.Workloads), len(workloadList))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: listed %q (%q), run %q (%q)", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	var listed []metricSpec
	for _, m := range bf.EndToEnd {
		listed = append(listed, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(listed, endToEnd) {
		t.Errorf("end_to_end lists\n%v\nthe untraced run prints\n%v", listed, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer lists\n%v\nthe traced run prints\n%v", bf.PerLayer, perLayer())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{19, 0.5, 0},
		{20, 0.5, 10},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{999, 0.99, 0},
		{1000, 0.99, 990},
	} {
		v, err := percentile(xs(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want refusal", 100*c.p, c.n, v)
		case c.want != 0 && (err != nil || v != c.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.p, c.n, v, err, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRunValue(t *testing.T) {
	bySeed := map[int64][]float64{1000: {2, 1, 3}, 2000: {5, 4}}
	for _, c := range []struct {
		m    metricSpec
		want float64
	}{
		{metricSpec{"wall_s", "s", "lower"}, 2.5},       // mean of the fastest per seed, 1 and 4
		{metricSpec{"ops_per_s", "ops/s", "higher"}, 4}, // mean of 3 and 5
		{metricSpec{"setup_s", "s", "lower"}, 3},        // median of all five
	} {
		if got := runValue(c.m, bySeed); got != c.want {
			t.Errorf("%s = %v, want %v", c.m.Name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}
	want := map[int64]float64{1: 50, 2: 30, 3: 20, 4: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestHookedPolicyIsTransparent checks that counting and timing hooks does
// not change what the core simulates.
func TestHookedPolicyIsTransparent(t *testing.T) {
	const budget = 3_000
	k, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, s := range spt.Schemes() {
		res, err := spt.Run(k.Name, spt.Options{Scheme: s, MaxInstructions: budget})
		if err != nil {
			t.Fatal(err)
		}
		pol, hooks, err := schemePolicy(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		core, err := pipeline.New(coreConfig(), k.Build(kernelIters), mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Run(budget, 400*budget); err != nil {
			t.Fatal(err)
		}
		if core.Stats.Cycles != res.Cycles {
			t.Errorf("%s: %d cycles through the wrapper, %d through spt.Run", s, core.Stats.Cycles, res.Cycles)
		}
		dump := core.StatsRegistry().Dump()
		dump.Engine = res.Stats.Engine
		if dump.Text() != res.Stats.Text() {
			t.Errorf("%s: stats dump through the wrapper differs from spt.Run's", s)
		}
		if s != spt.UnsafeBaseline && (hooks.n.Calls == 0 || hooks.n.TickTimed == 0) {
			t.Errorf("%s: wrapper counted %+v", s, hooks.n)
		}
	}
}

// recordingPolicy implements every policy hook and extension and counts
// the calls.
type recordingPolicy struct{ calls map[string]int }

func (p *recordingPolicy) Attach(*pipeline.Core)            { p.calls["Attach"]++ }
func (p *recordingPolicy) OnRename(*pipeline.DynInst)       { p.calls["OnRename"]++ }
func (p *recordingPolicy) OnSquash(*pipeline.DynInst)       { p.calls["OnSquash"]++ }
func (p *recordingPolicy) OnRetire(*pipeline.DynInst)       { p.calls["OnRetire"]++ }
func (p *recordingPolicy) OnVP(*pipeline.DynInst)           { p.calls["OnVP"]++ }
func (p *recordingPolicy) OnLoadComplete(*pipeline.DynInst) { p.calls["OnLoadComplete"]++ }
func (p *recordingPolicy) Tick()                            { p.calls["Tick"]++ }
func (p *recordingPolicy) RegisterStats(*stats.Registry)    { p.calls["RegisterStats"]++ }
func (p *recordingPolicy) MayExecuteMem(*pipeline.DynInst) bool {
	p.calls["MayExecuteMem"]++
	return true
}

func (p *recordingPolicy) MayResolveCF(*pipeline.DynInst) bool {
	p.calls["MayResolveCF"]++
	return true
}

func (p *recordingPolicy) MaySquashOnViolation(*pipeline.DynInst) bool {
	p.calls["MaySquashOnViolation"]++
	return true
}

func (p *recordingPolicy) STLForwardPublic(_, _ *pipeline.DynInst) bool {
	p.calls["STLForwardPublic"]++
	return true
}

func (p *recordingPolicy) ObliviousLatency(*pipeline.DynInst) (uint64, bool) {
	p.calls["ObliviousLatency"]++
	return 7, true
}

// TestHookedPolicyForwardsEveryHook calls each hook of the wrapper once
// (Tick once per sampling period) and checks that each reached the wrapped
// policy with its answer, and that a policy without the optional
// extensions answers as the pipeline does for one.
func TestHookedPolicyForwardsEveryHook(t *testing.T) {
	rec := &recordingPolicy{calls: map[string]int{}}
	h := newHookedPolicy(rec, 0)
	di := &pipeline.DynInst{}
	h.Attach(nil)
	h.OnRename(di)
	h.OnSquash(di)
	h.OnRetire(di)
	h.OnVP(di)
	h.OnLoadComplete(di)
	h.RegisterStats(nil)
	for i := 0; i < tickSample; i++ {
		h.Tick()
	}
	lat, obl := h.ObliviousLatency(di)
	if !h.MayExecuteMem(di) || !h.MayResolveCF(di) || !h.MaySquashOnViolation(di) || !h.STLForwardPublic(di, di) || lat != 7 || !obl {
		t.Error("a gate or extension answer was not forwarded")
	}
	want := map[string]int{
		"Attach": 1, "OnRename": 1, "OnSquash": 1, "OnRetire": 1, "OnVP": 1, "OnLoadComplete": 1,
		"RegisterStats": 1, "Tick": tickSample, "ObliviousLatency": 1, "MayExecuteMem": 1,
		"MayResolveCF": 1, "MaySquashOnViolation": 1, "STLForwardPublic": 1,
	}
	if !reflect.DeepEqual(rec.calls, want) {
		t.Errorf("forwarded calls %v, want %v", rec.calls, want)
	}
	if h.n.Calls != 10 || h.n.Ticks != tickSample || h.n.TickTimed != 1 {
		t.Errorf("counted %+v, want 10 calls, %d ticks, 1 timed", h.n, tickSample)
	}

	// Embedding the interface hides the extensions.
	bare := newHookedPolicy(struct{ pipeline.Policy }{rec}, 0)
	if lat, obl := bare.ObliviousLatency(di); bare.STLForwardPublic(di, di) || lat != 0 || obl {
		t.Error("a policy without extensions must answer STL false and oblivious (0, false)")
	}
}

// TestWarmReplayMatchesWalker checks that replaying a captured warm event
// stream into the hierarchy and the predictor separately trains them as
// Walker.Advance does. It runs every kernel because some event kinds, such
// as plain direct jumps, occur in only a few of them.
func TestWarmReplayMatchesWalker(t *testing.T) {
	const n = 20_000
	for _, k := range workloads.All() {
		name, prog := k.Name, k.Build(kernelIters)
		hcfg := mem.DefaultHierarchyConfig()
		w := checkpoint.NewWalker(prog, hcfg, true)
		if err := w.Advance(n); err != nil {
			t.Fatal(err)
		}
		evs, err := captureWarm(prog, n)
		if err != nil {
			t.Fatal(err)
		}
		h := mem.NewHierarchy(hcfg)
		replayHier(h, 0, evs)
		p := predictor.NewUnit()
		replayPred(p, evs)
		if !reflect.DeepEqual(h.Stats, w.Hier.Stats) {
			t.Errorf("%s: hierarchy stats %+v, walker %+v", name, h.Stats, w.Hier.Stats)
		}
		for _, c := range []struct {
			name       string
			got, walkr *mem.Cache
		}{{"L1I", h.L1I, w.Hier.L1I}, {"L1D", h.L1D, w.Hier.L1D}, {"L2", h.L2, w.Hier.L2}, {"L3", h.L3, w.Hier.L3}} {
			if c.got.Stats() != c.walkr.Stats() {
				t.Errorf("%s: %s stats %+v, walker %+v", name, c.name, c.got.Stats(), c.walkr.Stats())
			}
		}
		if !reflect.DeepEqual(p.Stats, w.Pred.Stats) {
			t.Errorf("%s: predictor stats %+v, walker %+v", name, p.Stats, w.Pred.Stats)
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced through the public
// API and traced through the internal packages, and checks that both pass
// their output checks and digest their per-cell results identically.
func TestWorkloadsAtToySize(t *testing.T) {
	const jobs = 2
	for i := range workloadList {
		w := &workloadList[i]
		t.Run(w.name, func(t *testing.T) {
			u, err := w.prepare(toy, 1000, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.timed(); err != nil {
				t.Fatal(err)
			}
			want := u.check()
			if want.Ops == 0 || want.Failed != 0 || want.Problem != "" {
				t.Fatalf("untraced outcome %+v", want)
			}
			tr := newTracer()
			got, err := w.traced(tr, toy, 1000, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if got.Ops != want.Ops || got.Failed != 0 || got.Cells != want.Cells {
				t.Errorf("traced outcome %+v, untraced %+v", got, want)
			}
			if len(tr.spans()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestProbesAtToySize(t *testing.T) {
	tr := newTracer()
	if err := probeTraced(tr, toy); err != nil {
		t.Fatal(err)
	}
	values, _ := layerMetrics(tr)
	for _, name := range []string{"emu.run_mips", "emu.runwarm_mips", "mem.warm_ns_per_access", "predictor.warm_ns_per_branch"} {
		if v := values[name]; !(v > 0) {
			t.Errorf("%s = %v after the probes", name, v)
		}
	}
}
