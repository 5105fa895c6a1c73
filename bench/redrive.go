package main

import (
	"fmt"

	"spt"
	"spt/internal/checkpoint"
	"spt/internal/emu"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/predictor"
	"spt/internal/stats"
	"spt/internal/symx"
	"spt/internal/workloads"
)

// The traced run re-drives each workload's work through the internal
// packages' public functions, with a span around every layer call. Each
// driver mirrors the public-API path it shadows (spt.Run's detailed and
// checkpointed paths, runSampled's serial window loop, RunCampaign,
// RunVerify) closely enough that its per-cell results digest identically;
// the runner checks that they do.

// kernelIters is the outer-loop count spt.Run builds kernels with: in
// effect unbounded, so the instruction budget ends the run.
const kernelIters = 1 << 40

func kernelList(names []string) ([]workloads.Workload, error) {
	if names == nil {
		return workloads.All(), nil
	}
	var out []workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func coreConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Model = pipeline.Futuristic
	return cfg
}

// schemePolicy builds the scheme's policy through the existing
// scheme-to-policy map and wraps it for hook counting; both results are
// nil for the unsafe baseline.
func schemePolicy(tr *tracer, scheme spt.Scheme) (pipeline.Policy, *hookedPolicy, error) {
	pol, err := fuzz.PolicyByName(string(scheme))
	if err != nil || pol == nil {
		return nil, nil, err
	}
	h := newHookedPolicy(pol, tr.timerNs)
	return h, h, nil
}

// cellRun is one traced Figure 7 cell's context.
type cellRun struct {
	tr     *tracer
	r      *rec
	id     int
	parent int64
	hooks  *hookedPolicy
}

func (c *cellRun) timed(name string, fn func()) { c.r.timed(c.id, c.parent, name, fn) }

// run steps core to target retired instructions inside a pipeline.run span
// and adds its counts to the cell.
func (c *cellRun) run(core *pipeline.Core, target, maxCycles uint64) error {
	before := core.Stats
	var hooks0 hookCounts
	if c.hooks != nil {
		hooks0 = c.hooks.n
	}
	var err error
	c.timed("pipeline.run", func() { err = core.Run(target, maxCycles) })
	c.tr.update(c.id, func(ci *cellInfo) {
		ci.Cycles += core.Stats.Cycles - before.Cycles
		ci.Retired += core.Stats.Retired - before.Retired
		ci.Fetched += core.Stats.Fetched - before.Fetched
		if c.hooks != nil {
			if ci.Hooks == nil {
				ci.Hooks = &hookCounts{}
			}
			ci.Hooks.add(c.hooks.n, hooks0)
		}
	})
	if err != nil {
		return err
	}
	if !core.Finished() && core.Stats.Retired < target {
		return fmt.Errorf("%s: hit the cycle bound (%d cycles, %d retired)", core.Prog.Name, core.Stats.Cycles, core.Stats.Retired)
	}
	return nil
}

func fig7Traced(mode string) func(tr *tracer, sz sizes, seed int64, jobs int) (outcome, error) {
	return func(tr *tracer, sz sizes, _ int64, jobs int) (outcome, error) {
		kernels, err := kernelList(sz.Kernels)
		if err != nil {
			return outcome{}, err
		}
		schemes := spt.Schemes()
		var store *checkpoint.Store
		if mode == modeCkpt {
			store = checkpoint.NewStore("")
		}
		cycles := make([]cellCycles, len(kernels)*len(schemes))
		err = tr.pool(jobs, len(cycles), func(r *rec, i int) error {
			k, s := kernels[i/len(schemes)], schemes[i%len(schemes)]
			id := tr.cell(cellInfo{Kind: mode, Workload: k.Name, Scheme: string(s)})
			root := r.begin(id, 0, "spt.cell")
			defer r.end(root)
			pol, hooks, err := schemePolicy(tr, s)
			if err != nil {
				return err
			}
			c := &cellRun{tr: tr, r: r, id: id, parent: r.id(root), hooks: hooks}
			var prog *isa.Program
			c.timed("workloads.build", func() { prog = k.Build(kernelIters) })
			var n uint64
			switch mode {
			case modeDetail:
				n, err = detailCell(c, prog, pol, sz.DetailBudget)
			case modeCkpt:
				n, err = ckptCell(c, prog, pol, store, sz.CkptSkip, sz.CkptBudget)
			case modeSampled:
				n, err = sampledCell(c, prog, s, sz.SampledBudget, sz.Sample)
			}
			cycles[i] = cellCycles{k.Name, s, n}
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, s, err)
			}
			return nil
		})
		if err != nil {
			return outcome{}, err
		}
		out := outcome{Ops: len(cycles), Cells: cyclesDigest(cycles)}
		if store != nil {
			if b := store.Stats().Builds; b != uint64(len(kernels)) {
				out.fail("checkpoint store built %d prefixes for %d kernels", b, len(kernels))
			}
		}
		return out, nil
	}
}

// detailCell mirrors spt.Run's from-reset path.
func detailCell(c *cellRun, prog *isa.Program, pol pipeline.Policy, budget uint64) (uint64, error) {
	var hier *mem.Hierarchy
	c.timed("mem.new", func() { hier = mem.NewHierarchy(mem.DefaultHierarchyConfig()) })
	var core *pipeline.Core
	var err error
	c.timed("pipeline.new", func() { core, err = pipeline.New(coreConfig(), prog, hier, pol) })
	if err != nil {
		return 0, err
	}
	if err := c.run(core, budget, 400*budget); err != nil {
		return 0, err
	}
	return core.Stats.Cycles, nil
}

// ckptCell mirrors spt.Run's checkpointed path with a grid-shared store.
func ckptCell(c *cellRun, prog *isa.Program, pol pipeline.Policy, store *checkpoint.Store, skip, budget uint64) (uint64, error) {
	hcfg := mem.DefaultHierarchyConfig()
	var cp *checkpoint.Checkpoint
	var err error
	c.timed("checkpoint.get", func() { cp, err = store.Get(prog, skip, hcfg, true) })
	if err != nil {
		return 0, err
	}
	core, err := bootCore(c, prog, pol, cp)
	if err != nil {
		return 0, err
	}
	if err := c.run(core, budget, 400*budget); err != nil {
		return 0, err
	}
	return core.Stats.Cycles, nil
}

func bootCore(c *cellRun, prog *isa.Program, pol pipeline.Policy, cp *checkpoint.Checkpoint) (*pipeline.Core, error) {
	var snap *emu.Snapshot
	var hier *mem.Hierarchy
	var pred *predictor.Unit
	c.timed("checkpoint.materialize", func() { snap, hier, pred = cp.Materialize(mem.DefaultHierarchyConfig()) })
	var core *pipeline.Core
	var err error
	c.timed("pipeline.boot", func() { core, err = pipeline.BootFromSnapshot(coreConfig(), prog, hier, pol, snap, pred) })
	return core, err
}

// sampledCell replays runSampled's serial loop: one walker pass, a
// checkpoint per interval, and a detailed window booted from each with a
// fresh policy. spec must have Warmup and Detail set.
func sampledCell(c *cellRun, prog *isa.Program, scheme spt.Scheme, budget uint64, spec spt.SampleSpec) (uint64, error) {
	hcfg := mem.DefaultHierarchyConfig()
	interval := budget / uint64(spec.Intervals)
	maxCycles := 400 * budget
	w := checkpoint.NewWalker(prog, hcfg, true)
	var cpis []float64
	var walked uint64
	for i := 0; i < spec.Intervals; i++ {
		walked = uint64(i+1)*interval - (spec.Warmup + spec.Detail)
		var err error
		c.timed("checkpoint.advance", func() { err = w.Advance(walked) })
		if err != nil {
			return 0, err
		}
		var cp *checkpoint.Checkpoint
		c.timed("checkpoint.snapshot", func() { cp = w.Checkpoint() })

		pol, hooks, err := schemePolicy(c.tr, scheme)
		if err != nil {
			return 0, err
		}
		c.hooks = hooks
		core, err := bootCore(c, prog, pol, cp)
		if err != nil {
			return 0, err
		}
		if err := c.run(core, spec.Warmup, maxCycles); err != nil {
			return 0, err
		}
		warmCycles, warmInsts := core.Stats.Cycles, core.Stats.Retired
		if err := c.run(core, warmInsts+spec.Detail, maxCycles); err != nil {
			return 0, err
		}
		insts := core.Stats.Retired - warmInsts
		if insts == 0 {
			return 0, fmt.Errorf("%s sample interval %d measured no instructions", prog.Name, i)
		}
		cpis = append(cpis, float64(core.Stats.Cycles-warmCycles)/float64(insts))
	}
	c.tr.update(c.id, func(ci *cellInfo) { ci.Walked = walked })
	m, _ := stats.MeanStd(cpis)
	return uint64(m*float64(budget) + 0.5), nil
}

// campaignTraced mirrors RunCampaign without state file, shards or budget:
// per generation a shape phase and an eval phase on the worker pool, then
// the report, whose minimization is the third phase.
func campaignTraced(tr *tracer, sz sizes, seed int64, jobs int) (outcome, error) {
	opt := campaignOptions(sz, seed, jobs)
	cfg := fuzz.CampaignConfig{Seed: seed, Generations: sz.Generations, PerGen: sz.PerGen}
	for _, s := range spt.Schemes() {
		cfg.Schemes = append(cfg.Schemes, string(s))
	}
	for _, m := range spt.AttackModels() {
		cfg.Models = append(cfg.Models, string(m))
	}

	r := tr.rec()
	id := tr.cell(cellInfo{Kind: "campaign"})
	root := r.begin(id, 0, "fuzz.campaign")
	defer r.end(root)
	rootID := r.id(root)

	var corpus []fuzz.CorpusEntry
	var err error
	r.timed(id, rootID, "fuzz.load_corpus", func() { corpus, err = fuzz.LoadCorpus(sz.CorpusDir) })
	if err != nil {
		return outcome{}, err
	}
	st := fuzz.NewCampaignState(cfg, cfg.Digest(corpus), spt.EngineVersion)
	unitCells := make([]int, cfg.Units())
	for u := range unitCells {
		unitCells[u] = tr.cell(cellInfo{Kind: "campaign-unit"})
	}

	for g := 0; g < cfg.Generations; g++ {
		phase := r.begin(id, rootID, "fuzz.phase.shape")
		plan := fuzz.PlanGeneration(cfg, corpus, g, st.Units)
		prior := st.Units
		shaped := make([]fuzz.UnitRecord, len(plan))
		traces := make([][]string, len(plan))
		err := tr.pool(jobs, len(plan), func(w *rec, i int) error {
			var err error
			w.timed(unitCells[plan[i].Unit], r.id(phase), "fuzz.shape", func() {
				shaped[i], _, traces[i], err = fuzz.ShapeUnit(plan[i], prior, corpus)
			})
			return err
		})
		r.end(phase)
		if err != nil {
			return outcome{}, err
		}
		st.Units = append(st.Units, shaped...)

		phase = r.begin(id, rootID, "fuzz.phase.eval")
		var pending []int
		for i, u := range st.Units {
			if u.Gen == g && u.Rejected == "" && !u.Done {
				pending = append(pending, i)
			}
		}
		evaled := make([]fuzz.UnitRecord, len(pending))
		err = tr.pool(jobs, len(pending), func(w *rec, k int) error {
			u := st.Units[pending[k]]
			var err error
			w.timed(unitCells[u.Unit], r.id(phase), "fuzz.eval", func() {
				c, _, reject, rerr := fuzz.RealizeUnit(u, st.Units, corpus)
				if rerr != nil || reject != "" {
					err = fmt.Errorf("realizing unit %d: %v%s", u.Unit, rerr, reject)
					return
				}
				leaks, eerr := fuzz.EvalUnit(c, cfg.Schemes, cfg.Models, traces[u.Unit-g*cfg.PerGen])
				if eerr != nil {
					// Recorded, not fatal, as RunCampaign does.
					u.EvalError = eerr.Error()
				}
				u.Done = true
				u.Leaks = leaks
			})
			evaled[k] = u
			return err
		})
		r.end(phase)
		if err != nil {
			return outcome{}, err
		}
		for k, i := range pending {
			st.Units[i] = evaled[k]
		}
	}

	var rep *spt.CampaignReport
	r.timed(id, rootID, "fuzz.phase.minimize", func() { rep, err = spt.CampaignReportFromState(st, opt) })
	if err != nil {
		return outcome{}, err
	}
	tr.add("campaign.units", float64(rep.Units))
	tr.add("campaign.rejected", float64(rep.Rejected))
	return campaignCheck(rep), nil
}

// verifyProgram is one program of a verify campaign.
type verifyProgram struct {
	name  string
	prog  *isa.Program
	entry *fuzz.CorpusEntry // corpus programs
	gen   *fuzz.Case        // generated gadgets
}

// verifyTraced mirrors RunVerify: every program under every (scheme,
// model) cell through both oracles, tallied per cell in enumeration order.
func verifyTraced(tr *tracer, sz sizes, seed int64, jobs int) (outcome, error) {
	r := tr.rec()
	id := tr.cell(cellInfo{Kind: "verify"})
	root := r.begin(id, 0, "fuzz.verify")
	defer r.end(root)

	entries, err := fuzz.LoadCorpus(sz.CorpusDir)
	if err != nil {
		return outcome{}, err
	}
	var progs []verifyProgram
	for i := range entries {
		progs = append(progs, verifyProgram{name: entries[i].Name, prog: entries[i].Prog, entry: &entries[i]})
	}
	for i := 0; i < sz.VerifyCount; i++ {
		var c fuzz.Case
		r.timed(id, r.id(root), "fuzz.generate", func() { c = fuzz.Generate(seed + int64(i)) })
		progs = append(progs, verifyProgram{name: c.Name, prog: c.Prog, gen: &c})
	}

	schemes, models := spt.Schemes(), spt.AttackModels()
	per := len(schemes) * len(models)
	results := make([]fuzz.CrossCheck, len(progs)*per)
	err = tr.pool(jobs, len(results), func(w *rec, i int) error {
		p := progs[i/per]
		s, m := string(schemes[i%per/len(models)]), string(models[i%len(models)])
		cell := tr.cell(cellInfo{Kind: "verify-cell", Workload: p.name, Scheme: s + "/" + m})
		h := w.begin(cell, 0, "verify.cell")
		defer w.end(h)
		var err error
		results[i], err = crossCheck(w, cell, w.id(h), p.prog, s, m)
		if err != nil {
			return fmt.Errorf("%s under %s/%s: %w", p.name, s, m, err)
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}

	cells := make([]spt.VerifyCellStats, per)
	for i := range cells {
		cells[i] = spt.VerifyCellStats{Scheme: schemes[i/len(models)], Model: models[i%len(models)]}
	}
	out := outcome{Ops: len(results)}
	for i, cc := range results {
		p := progs[i/per]
		cell := &cells[i%per]
		cell.Checks++
		if cc.Sym.Method == "enumeration" {
			cell.Enumerated++
			tr.add("verify.enumerated", 1)
		}
		switch cc.Agreement {
		case fuzz.AgreeLeak:
			cell.AgreeLeak++
		case fuzz.AgreeSecure:
			cell.AgreeSecure++
		case fuzz.SymLeakConfirmed:
			cell.SymConfirmed++
		case fuzz.SymUnknown:
			cell.Unknown++
			tr.add("verify.unknown", 1)
		default:
			cell.Disagreements++
			out.Failed++
		}
		expected := ""
		if p.entry != nil {
			expected = corpusExpectation(*p.entry, cc.Scheme, cc.Model)
		} else if fuzz.ExpectLeak(cc.Scheme, cc.Model, *p.gen) {
			expected = "leak"
		} else {
			expected = "clean"
		}
		if expected != "" && cc.OK() && cc.Sym.Verdict != symx.VerdictUnknown {
			wantLeak := expected == "leak"
			symLeak := cc.Sym.Verdict == symx.VerdictLeak
			seen := cc.FuzzLeaked || cc.Agreement == fuzz.SymLeakConfirmed
			if symLeak != wantLeak || seen != wantLeak {
				cell.Mismatches++
				out.Failed++
			}
		}
	}
	tr.add("verify.cells", float64(len(results)))
	if out.Failed > 0 {
		out.Problem = fmt.Sprintf("%d cells with an oracle disagreement or a ground-truth mismatch", out.Failed)
	}
	out.Cells = verifyCellsDigest(cells)
	return out, nil
}

// crossCheck mirrors fuzz.CrossCheckProgram's verdict logic with a span
// around each oracle call.
func crossCheck(r *rec, cell int, parent int64, prog *isa.Program, scheme, model string) (fuzz.CrossCheck, error) {
	cc := fuzz.CrossCheck{Name: prog.Name, Scheme: scheme, Model: model}
	var fv fuzz.Verdict
	var err error
	r.timed(cell, parent, "fuzz.checkleak", func() { fv, err = fuzz.CheckLeak(prog, scheme, model) })
	if err != nil {
		return cc, err
	}
	cc.FuzzLeaked = fv.Leaked
	r.timed(cell, parent, "symx.verify", func() { cc.Sym, err = symx.Verify(prog, scheme, model, fuzz.SymxConfig()) })
	if err != nil {
		return cc, err
	}
	switch cc.Sym.Verdict {
	case symx.VerdictUnknown:
		cc.Agreement = fuzz.SymUnknown
	case symx.VerdictSecure:
		cc.Agreement = fuzz.AgreeSecure
		if fv.Leaked {
			cc.Agreement = fuzz.SoundnessBug
		}
	case symx.VerdictLeak:
		if fv.Leaked {
			cc.Agreement = fuzz.AgreeLeak
			break
		}
		wa, wb := cc.Sym.Witness.SecretA[0], cc.Sym.Witness.SecretB[0]
		var rv fuzz.Verdict
		r.timed(cell, parent, "fuzz.checkleak", func() { rv, err = fuzz.CheckLeakWith(prog, scheme, model, wa, wb) })
		if err != nil {
			return cc, err
		}
		cc.Agreement = fuzz.WitnessUnconfirmed
		if rv.Leaked {
			cc.Agreement = fuzz.SymLeakConfirmed
		}
	}
	return cc, nil
}

// corpusExpectation is a corpus entry's recorded verdict for a cell:
// "leak", "clean", or "" when unclassified.
func corpusExpectation(e fuzz.CorpusEntry, scheme, model string) string {
	for _, sm := range e.LeaksUnder() {
		if sm.Scheme == scheme && sm.Model == model {
			return "leak"
		}
	}
	for _, sm := range e.CleanUnder() {
		if sm.Scheme == scheme && sm.Model == model {
			return "clean"
		}
	}
	return ""
}

// probeTraced times the functional layers on every kernel, one kernel at
// a time: the emulator's plain and warming dispatch, then a captured warm
// event stream replayed into the memory hierarchy alone and into the
// predictor alone.
func probeTraced(tr *tracer, sz sizes) error {
	kernels, err := kernelList(sz.Kernels)
	if err != nil {
		return err
	}
	r := tr.rec()
	for _, k := range kernels {
		prog := k.Build(kernelIters)
		id := tr.cell(cellInfo{Kind: "probe", Workload: k.Name})
		e := emu.New(prog)
		r.timed(id, 0, "emu.run", func() { _, err = e.Run(sz.ProbeInsts) })
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		e = emu.New(prog)
		r.timed(id, 0, "emu.runwarm", func() { _, err = e.RunWarm(sz.ProbeInsts, func([]emu.WarmEvent) {}) })
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		evs, err := captureWarm(prog, sz.ReplayInsts)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		hier := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		var accesses, branches uint64
		r.timed(id, 0, "mem.replay", func() { accesses = replayHier(hier, 0, evs) })
		pred := predictor.NewUnit()
		r.timed(id, 0, "predictor.replay", func() { branches = replayPred(pred, evs) })
		tr.update(id, func(ci *cellInfo) {
			ci.Retired, ci.Accesses, ci.Branches = sz.ProbeInsts, accesses, branches
		})
	}
	return nil
}

// captureWarm records the warm event stream of prog's first n instructions.
func captureWarm(prog *isa.Program, n uint64) ([]emu.WarmEvent, error) {
	evs := make([]emu.WarmEvent, 0, n)
	_, err := emu.New(prog).RunWarm(n, func(b []emu.WarmEvent) { evs = append(evs, b...) })
	return evs, err
}

// replayHier is the memory half of checkpoint.Walker's event replay: one
// pseudo-clock tick and an instruction fetch per event, plus the data
// access of loads and stores. It returns the accesses made.
func replayHier(h *mem.Hierarchy, now uint64, evs []emu.WarmEvent) uint64 {
	var n uint64
	for i := range evs {
		ev := &evs[i]
		now++
		h.AccessInstr(now, ev.PC*uint64(isa.WordSize))
		n++
		switch ev.Kind {
		case emu.WarmLoad:
			h.AccessData(now, ev.Aux, false)
			n++
		case emu.WarmStore:
			h.AccessData(now, ev.Aux, true)
			n++
		}
	}
	return n
}

// replayPred is the predictor half of checkpoint.Walker's event replay:
// predict, resolve and recover for every control-flow event. It returns
// the branches trained.
func replayPred(p *predictor.Unit, evs []emu.WarmEvent) uint64 {
	var cp predictor.Checkpoint
	var n uint64
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case emu.WarmCondNotTaken, emu.WarmCondTaken:
			taken := ev.Kind == emu.WarmCondTaken
			p.PredictCond(ev.PC, &cp)
			if p.ResolveCond(&cp, taken, ev.Aux) {
				p.Recover(&cp, taken)
			}
		case emu.WarmJal, emu.WarmJalCall:
			p.PredictJump(ev.PC, ev.Aux, true, ev.Kind == emu.WarmJalCall, false, &cp)
			p.ResolveJump(&cp, ev.Aux, false)
		case emu.WarmJalr, emu.WarmJalrCall, emu.WarmJalrRet:
			p.PredictJump(ev.PC, 0, false, ev.Kind == emu.WarmJalrCall, ev.Kind == emu.WarmJalrRet, &cp)
			if p.ResolveJump(&cp, ev.Aux, true) {
				p.Recover(&cp, true)
			}
		default:
			continue
		}
		n++
	}
	return n
}
