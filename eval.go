package spt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"spt/internal/workloads"
)

// EvalOptions scales the evaluation harness.
type EvalOptions struct {
	// Budget is the retired-instruction budget per run (the SimPoint
	// stand-in). Default 120,000.
	Budget uint64
	// Workloads restricts the suite (nil = all). Names are validated before
	// any simulation starts; an unknown name is an error.
	Workloads []string
	// Width is the untaint broadcast width for SPT runs. Default 3.
	Width int
	// Jobs is the number of simulations run concurrently. 0 (the default)
	// uses runtime.GOMAXPROCS(0); 1 runs the grid strictly sequentially.
	// Aggregation is always a sequential pass in grid order, so every figure
	// and sweep produces bit-identical output regardless of Jobs.
	Jobs int
	// WindowJobs is each cell's Options.Jobs: how many measured windows a
	// sampled simulation runs concurrently. It composes multiplicatively
	// with Jobs (cells x windows workers can oversubscribe the host), so
	// prefer WindowJobs when the grid is small and Jobs when it is large.
	// Results are bit-identical for every value. Ignored without Sample.
	WindowJobs int
	// Context, if non-nil, cancels an in-flight evaluation: no further
	// simulation starts, and each running one stops at its next check of
	// Options.Context (between sample windows and every few thousand
	// simulated cycles; a functional fast-forward prefix runs to its end).
	Context context.Context
	// Progress, if non-nil, is called after each executed simulation
	// (successful or failed) with the number done so far, the grid total,
	// and the finished job. Calls are serialized; completion order depends
	// on scheduling when Jobs > 1.
	Progress func(done, total int, j Job)
	// Skip fast-forwards each cell's first Skip instructions functionally
	// before detailed simulation (Options.SkipInstructions). Cells sharing
	// a workload share one checkpoint, so the functional prefix runs once
	// per workload for the whole grid.
	Skip uint64
	// Sample runs every cell in SMARTS-style sampled mode (Options.Sample).
	// Cells sharing a workload take their windows from one shared walk of
	// its prefix. Mutually exclusive with Skip.
	Sample SampleSpec
	// Checkpoints, if non-nil, supplies the checkpoint store grid cells
	// share (e.g. NewCheckpointStore with an on-disk directory); it keeps
	// everything the grid put in it. Nil with Skip or Sample set uses an
	// ephemeral in-memory store per harness call, which drops a workload's
	// checkpoints and kept walk once the workload's last cell has returned.
	// Either way a Skip prefix runs once per workload and a sampled walk
	// once per workload, for the whole grid.
	Checkpoints *CheckpointStore
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Budget == 0 {
		o.Budget = 120_000
	}
	if o.Width == 0 {
		o.Width = 3
	}
	return o
}

// names returns the workload list for the run, validating any explicit
// subset so a typo fails fast with a descriptive error instead of flowing
// through the grid as an unknown class.
func (o EvalOptions) names() ([]string, error) {
	if len(o.Workloads) > 0 {
		for _, name := range o.Workloads {
			if _, err := workloads.ByName(name); err != nil {
				return nil, fmt.Errorf("spt: invalid EvalOptions.Workloads: %w (spt-sim -list names the suite)", err)
			}
		}
		return o.Workloads, nil
	}
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return names, nil
}

func classOf(name string) string {
	w, err := workloads.ByName(name)
	if err != nil {
		return "?"
	}
	return w.Class.String()
}

// Figure7Row is one benchmark's normalized execution time per scheme.
type Figure7Row struct {
	Workload   string
	Class      string
	Cycles     map[Scheme]uint64
	Normalized map[Scheme]float64 // relative to UnsafeBaseline
}

// Figure7 reproduces the paper's Figure 7 for one attack model.
type Figure7 struct {
	Model   AttackModel
	Schemes []Scheme
	Rows    []Figure7Row
	// Mean is the geometric mean of normalized execution time per scheme
	// over all benchmarks; MeanSpec and MeanCT restrict to the SPEC-like
	// and constant-time subsets.
	Mean, MeanSpec, MeanCT map[Scheme]float64
}

// RunFigure7 measures normalized execution time for every workload and
// scheme under the given attack model. The |workloads| x |schemes| grid
// runs on opt.Jobs workers; the unsafe baseline is an ordinary grid cell
// joined during aggregation.
func RunFigure7(model AttackModel, opt EvalOptions) (*Figure7, error) {
	opt = opt.withDefaults()
	names, err := opt.names()
	if err != nil {
		return nil, err
	}
	fig := &Figure7{
		Model:   model,
		Schemes: Schemes(),
		Mean:    map[Scheme]float64{}, MeanSpec: map[Scheme]float64{}, MeanCT: map[Scheme]float64{},
	}

	cell := func(name string, s Scheme) Job {
		return Job{Workload: name, Scheme: s, Model: model, Width: opt.Width, Budget: opt.Budget, Skip: opt.Skip, Sample: opt.Sample}
	}
	var jobs []Job
	for _, name := range names {
		for _, s := range fig.Schemes {
			jobs = append(jobs, cell(name, s))
		}
	}
	results, err := runGrid(jobs, opt, newJobRunner(jobs, opt).run)
	if err != nil {
		return nil, err
	}

	type acc struct {
		logSum float64
		n      int
	}
	accAll := map[Scheme]*acc{}
	accSpec := map[Scheme]*acc{}
	accCT := map[Scheme]*acc{}
	for _, s := range fig.Schemes {
		accAll[s], accSpec[s], accCT[s] = &acc{}, &acc{}, &acc{}
	}

	for _, name := range names {
		row := Figure7Row{
			Workload:   name,
			Class:      classOf(name),
			Cycles:     map[Scheme]uint64{},
			Normalized: map[Scheme]float64{},
		}
		base := results[cell(name, UnsafeBaseline)]
		for _, s := range fig.Schemes {
			res := results[cell(name, s)]
			row.Cycles[s] = res.Cycles
			norm := res.NormalizedTo(base)
			row.Normalized[s] = norm
			accAll[s].logSum += math.Log(norm)
			accAll[s].n++
			if row.Class == "const-time" {
				accCT[s].logSum += math.Log(norm)
				accCT[s].n++
			} else {
				accSpec[s].logSum += math.Log(norm)
				accSpec[s].n++
			}
		}
		fig.Rows = append(fig.Rows, row)
	}
	gm := func(a *acc) float64 {
		if a.n == 0 {
			return 0
		}
		return math.Exp(a.logSum / float64(a.n))
	}
	for _, s := range fig.Schemes {
		fig.Mean[s] = gm(accAll[s])
		fig.MeanSpec[s] = gm(accSpec[s])
		fig.MeanCT[s] = gm(accCT[s])
	}
	return fig, nil
}

// Text renders the figure as an aligned table.
func (f *Figure7) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — execution time normalized to UnsafeBaseline (%s model)\n", f.Model)
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, s := range f.Schemes {
		fmt.Fprintf(&b, " %13s", s)
	}
	b.WriteString("\n")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s", row.Workload)
		for _, s := range f.Schemes {
			fmt.Fprintf(&b, " %13.3f", row.Normalized[s])
		}
		b.WriteString("\n")
	}
	for _, m := range []struct {
		name string
		v    map[Scheme]float64
	}{{"gmean(spec)", f.MeanSpec}, {"gmean(ct)", f.MeanCT}, {"gmean(all)", f.Mean}} {
		fmt.Fprintf(&b, "%-12s", m.name)
		for _, s := range f.Schemes {
			fmt.Fprintf(&b, " %13.3f", m.v[s])
		}
		b.WriteString("\n")
	}
	b.WriteString("\n" + f.Headline())
	return b.String()
}

// Headline summarizes the paper's §9.2 claims from the measured data.
func (f *Figure7) Headline() string {
	var b strings.Builder
	sptOv := f.MeanSpec[SPTFull] - 1
	secOv := f.MeanSpec[SecureBaseline] - 1
	fmt.Fprintf(&b, "[%s] SPT overhead vs UnsafeBaseline (spec): %.1f%%  (paper: 45%% futuristic / 11%% spectre)\n",
		f.Model, 100*sptOv)
	if sptOv > 0 {
		fmt.Fprintf(&b, "[%s] SecureBaseline/SPT overhead ratio (spec): %.1fx  (paper: 3.6x / 3x)\n",
			f.Model, secOv/sptOv)
	}
	fmt.Fprintf(&b, "[%s] const-time kernels: SecureBaseline %.2fx, SPT %.2fx vs unsafe (paper futuristic: 2.8x -> 1.10x)\n",
		f.Model, f.MeanCT[SecureBaseline], f.MeanCT[SPTFull])
	fmt.Fprintf(&b, "[%s] SPT extra overhead vs STT (spec): %.1f pp (paper: +26.1 futuristic / +3.3 spectre)\n",
		f.Model, 100*(f.MeanSpec[SPTFull]-f.MeanSpec[STT]))
	return b.String()
}

// Figure8Row is one benchmark's untaint-event breakdown under one model.
type Figure8Row struct {
	Workload string
	Model    AttackModel
	// Counts maps event kind to count; Fractions are counts normalized to
	// the row total.
	Counts    map[string]uint64
	Fractions map[string]float64
	Total     uint64
}

// RunFigure8 reproduces the untaint-event breakdown (full SPT design,
// both attack models). The |workloads| x |models| grid runs on opt.Jobs
// workers.
func RunFigure8(opt EvalOptions) ([]Figure8Row, error) {
	opt = opt.withDefaults()
	names, err := opt.names()
	if err != nil {
		return nil, err
	}
	cell := func(name string, model AttackModel) Job {
		return Job{Workload: name, Scheme: SPTFull, Model: model, Width: opt.Width, Budget: opt.Budget, Skip: opt.Skip, Sample: opt.Sample}
	}
	var jobs []Job
	for _, name := range names {
		for _, model := range AttackModels() {
			jobs = append(jobs, cell(name, model))
		}
	}
	results, err := runGrid(jobs, opt, newJobRunner(jobs, opt).run)
	if err != nil {
		return nil, err
	}

	var rows []Figure8Row
	for _, name := range names {
		for _, model := range AttackModels() {
			res := results[cell(name, model)]
			row := Figure8Row{
				Workload:  name,
				Model:     model,
				Counts:    res.Taint.Events,
				Fractions: map[string]float64{},
			}
			for _, v := range res.Taint.Events {
				row.Total += v
			}
			if row.Total > 0 {
				for k, v := range res.Taint.Events {
					row.Fractions[k] = float64(v) / float64(row.Total)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure8Text renders the breakdown table.
func Figure8Text(rows []Figure8Row) string {
	kinds := EventNames()
	var b strings.Builder
	b.WriteString("Figure 8 — breakdown of untaint events, SPT{Bwd,ShadowL1} (F = futuristic, S = spectre)\n")
	fmt.Fprintf(&b, "%-12s %-2s %10s", "benchmark", "m", "total")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %12s", k)
	}
	b.WriteString("\n")
	for _, r := range rows {
		m := "F"
		if r.Model == Spectre {
			m = "S"
		}
		fmt.Fprintf(&b, "%-12s %-2s %10d", r.Workload, m, r.Total)
		for _, k := range kinds {
			fmt.Fprintf(&b, " %11.1f%%", 100*r.Fractions[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure9Row is one benchmark's cumulative untaints-per-cycle distribution
// under SPT{Ideal,ShadowMem}.
type Figure9Row struct {
	Workload string
	// CumulativePct[i] is the percentage of untainting cycles that untaint
	// at most i+1 registers (the last bucket covers 10+ and is 100).
	CumulativePct    [10]float64
	UntaintingCycles uint64
}

// RunFigure9 measures, for each untainting cycle, how many registers were
// untainted (paper Figure 9; justifies broadcast width 3). The per-workload
// runs execute on opt.Jobs workers.
func RunFigure9(opt EvalOptions) ([]Figure9Row, error) {
	opt = opt.withDefaults()
	all, err := opt.names()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range all {
		if classOf(name) == "const-time" {
			continue // the paper runs Figure 9 on SPEC only
		}
		names = append(names, name)
	}
	cell := func(name string) Job {
		return Job{Workload: name, Scheme: SPTIdealShadowMem, Model: Futuristic, Width: opt.Width, Budget: opt.Budget, Skip: opt.Skip, Sample: opt.Sample}
	}
	var jobs []Job
	for _, name := range names {
		jobs = append(jobs, cell(name))
	}
	results, err := runGrid(jobs, opt, newJobRunner(jobs, opt).run)
	if err != nil {
		return nil, err
	}

	var rows []Figure9Row
	for _, name := range names {
		res := results[cell(name)]
		row := Figure9Row{Workload: name, UntaintingCycles: res.Taint.UntaintingCycles}
		var cum uint64
		for i, v := range res.Taint.UntaintHist {
			cum += v
			if res.Taint.UntaintingCycles > 0 {
				row.CumulativePct[i] = 100 * float64(cum) / float64(res.Taint.UntaintingCycles)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure9Text renders the cumulative distribution table, plus the average
// coverage of width 3 (the paper's ~81% claim).
func Figure9Text(rows []Figure9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9 — % of untainting cycles untainting <= N registers, SPT{Ideal,ShadowMem}\n")
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for n := 1; n <= 9; n++ {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("<=%d", n))
	}
	fmt.Fprintf(&b, " %6s\n", "10+")
	var sum3 float64
	active := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&b, " %5.1f%%", r.CumulativePct[i])
		}
		if r.UntaintingCycles == 0 {
			b.WriteString("  (no untainting cycles)")
		} else {
			sum3 += r.CumulativePct[2]
			active++
		}
		b.WriteString("\n")
	}
	if active > 0 {
		fmt.Fprintf(&b, "average coverage of width 3: %.1f%% (paper: ~81%%)\n", sum3/float64(active))
	}
	return b.String()
}

// StatsBreakdownSchemes lists the schemes the stats breakdown compares:
// both baselines and both taint schemes (the paper's Fig. 10 comparison
// points).
func StatsBreakdownSchemes() []Scheme {
	return []Scheme{UnsafeBaseline, SecureBaseline, STT, SPTFull}
}

// StatsBreakdownRow is one workload × scheme cell of the "where did the
// slowdown go" table, with every figure derived from the run's stats dump.
type StatsBreakdownRow struct {
	Workload string
	Scheme   Scheme
	// Normalized is execution time relative to UnsafeBaseline.
	Normalized float64
	IPC        float64
	// DelayedTransmitterPct is the percentage of executed loads/stores the
	// policy blocked for at least one cycle (paper Fig. 10).
	DelayedTransmitterPct float64
	// AvgDelayCycles is the mean blocked-cycle count per delayed transmitter.
	AvgDelayCycles float64
	// UntaintVPPKI is untaint-at-VP events per kilo-instruction (SPT's
	// vp-declassify rule; STT's transitive untaints).
	UntaintVPPKI float64
	L1DMPKI      float64
	// SquashPKI is squash events per kilo-instruction.
	SquashPKI float64
}

// StatsBreakdown is the full table for one attack model.
type StatsBreakdown struct {
	Model   AttackModel
	Schemes []Scheme
	Rows    []StatsBreakdownRow
}

// RunStatsBreakdown runs the |workloads| × |StatsBreakdownSchemes| grid and
// derives the breakdown from each run's stats dump. Like every harness here
// it aggregates sequentially in grid order, so the output is bit-identical
// at any opt.Jobs.
func RunStatsBreakdown(model AttackModel, opt EvalOptions) (*StatsBreakdown, error) {
	opt = opt.withDefaults()
	names, err := opt.names()
	if err != nil {
		return nil, err
	}
	bd := &StatsBreakdown{Model: model, Schemes: StatsBreakdownSchemes()}
	cell := func(name string, s Scheme) Job {
		return Job{Workload: name, Scheme: s, Model: model, Width: opt.Width, Budget: opt.Budget, Skip: opt.Skip, Sample: opt.Sample}
	}
	var jobs []Job
	for _, name := range names {
		for _, s := range bd.Schemes {
			jobs = append(jobs, cell(name, s))
		}
	}
	results, err := runGrid(jobs, opt, newJobRunner(jobs, opt).run)
	if err != nil {
		return nil, err
	}

	for _, name := range names {
		base := results[cell(name, UnsafeBaseline)]
		for _, s := range bd.Schemes {
			res := results[cell(name, s)]
			d := res.Stats
			scalar := func(stat string) uint64 {
				v, _ := d.Get(stat)
				return v.Scalar
			}
			formula := func(stat string) float64 {
				v, _ := d.Get(stat)
				return v.Float
			}
			row := StatsBreakdownRow{
				Workload:              name,
				Scheme:                s,
				Normalized:            res.NormalizedTo(base),
				IPC:                   res.IPC(),
				DelayedTransmitterPct: formula("policy.delayed_transmitter_pct"),
				L1DMPKI:               formula("l1d.mpki"),
				SquashPKI:             formula("squash.pki"),
			}
			if td, ok := d.Get("policy.transmitter_delay"); ok && td.Dist != nil {
				row.AvgDelayCycles = td.Dist.Mean
			}
			var untaints uint64
			if _, ok := d.Get("spt.untaint.vp-declassify"); ok {
				untaints = scalar("spt.untaint.vp-declassify")
			} else if _, ok := d.Get("stt.untaints"); ok {
				untaints = scalar("stt.untaints")
			}
			if res.Instructions > 0 {
				row.UntaintVPPKI = 1000 * float64(untaints) / float64(res.Instructions)
			}
			bd.Rows = append(bd.Rows, row)
		}
	}
	return bd, nil
}

// Text renders the breakdown as an aligned per-workload × per-scheme table.
func (bd *StatsBreakdown) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10-style breakdown — where the slowdown goes (%s model)\n", bd.Model)
	fmt.Fprintf(&b, "%-12s %-8s %8s %7s %9s %9s %12s %9s %10s\n",
		"benchmark", "scheme", "norm", "ipc", "delayed%", "avgdelay", "untaintVP/ki", "l1d-mpki", "squash/ki")
	for _, r := range bd.Rows {
		fmt.Fprintf(&b, "%-12s %-8s %8.3f %7.3f %8.1f%% %9.1f %12.1f %9.2f %10.2f\n",
			r.Workload, r.Scheme, r.Normalized, r.IPC,
			r.DelayedTransmitterPct, r.AvgDelayCycles, r.UntaintVPPKI, r.L1DMPKI, r.SquashPKI)
	}
	return b.String()
}

// WidthSweepRow is one (workload, width) cycle count.
type WidthSweepRow struct {
	Workload   string
	Width      int // 0 = unbounded
	Cycles     uint64
	Normalized float64 // vs unbounded width
}

// RunWidthSweep measures sensitivity to the untaint broadcast width
// (paper §9.4). The |workloads| x |widths| grid runs on opt.Jobs workers.
func RunWidthSweep(widths []int, opt EvalOptions) ([]WidthSweepRow, error) {
	opt = opt.withDefaults()
	if len(widths) == 0 {
		widths = []int{1, 2, 3, 4, 6, 8, -1}
	}
	names, err := opt.names()
	if err != nil {
		return nil, err
	}
	cell := func(name string, w int) Job {
		return Job{Workload: name, Scheme: SPTFull, Model: Futuristic, Width: w, Budget: opt.Budget, Skip: opt.Skip, Sample: opt.Sample}
	}
	var jobs []Job
	for _, name := range names {
		for _, w := range widths {
			jobs = append(jobs, cell(name, w))
		}
	}
	results, err := runGrid(jobs, opt, newJobRunner(jobs, opt).run)
	if err != nil {
		return nil, err
	}

	var rows []WidthSweepRow
	for _, name := range names {
		base := map[int]uint64{}
		start := len(rows)
		for _, w := range widths {
			res := results[cell(name, w)]
			wKey := w
			if w < 0 {
				wKey = 0
			}
			base[wKey] = res.Cycles
			rows = append(rows, WidthSweepRow{Workload: name, Width: wKey, Cycles: res.Cycles})
		}
		if unb, ok := base[0]; ok && unb > 0 {
			for i := start; i < len(rows); i++ {
				rows[i].Normalized = float64(rows[i].Cycles) / float64(unb)
			}
		}
	}
	return rows, nil
}

// WidthSweepText renders the sweep.
func WidthSweepText(rows []WidthSweepRow) string {
	byWorkload := map[string]map[int]WidthSweepRow{}
	var names []string
	widthSet := map[int]bool{}
	for _, r := range rows {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[int]WidthSweepRow{}
			names = append(names, r.Workload)
		}
		byWorkload[r.Workload][r.Width] = r
		widthSet[r.Width] = true
	}
	var widths []int
	for w := range widthSet {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	var b strings.Builder
	b.WriteString("§9.4 — untaint broadcast width sweep, cycles normalized to unbounded width (0)\n")
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, w := range widths {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("w=%d", w))
	}
	b.WriteString("\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%-12s", n)
		for _, w := range widths {
			fmt.Fprintf(&b, " %8.3f", byWorkload[n][w].Normalized)
		}
		b.WriteString("\n")
	}
	return b.String()
}
