package main

import (
	"fmt"
	"math"
	"sort"

	"spt"
)

// metricSpec declares one printed metric. BENCHMARK.json lists the same
// names, units and directions, and holds the end-to-end bounds.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics, each reduced over the run's
// repetitions by runValue.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},         // wall clock of the timed public-API call
	{"ops_per_s", "ops/s", "higher"}, // grid cells, evaluated units or verify cells per second
	{"cpu_s", "s", "lower"},          // child user+sys time (rusage)
	{"alloc_mb", "MB", "lower"},      // TotalAlloc delta over the timed call
	{"setup_s", "s", "lower"},        // child launch to the timed call
}

// perLayer are the traced run's metrics. Every traced run re-drives all
// five workloads, so each metric is measured on the work it describes.
func perLayer() []metricSpec {
	m := []metricSpec{
		{"spt.cell_ms.p50", "ms", "lower"},
		{"spt.cell_ms.p90", "ms", "lower"},
		{"workloads.build_ms", "ms", "lower"},
		{"emu.run_mips", "MIPS", "higher"},
		{"emu.runwarm_mips", "MIPS", "higher"},
		{"checkpoint.advance_mips", "MIPS", "higher"},
		{"checkpoint.walk_share", "fraction", "lower"},
		{"checkpoint.snapshot_us", "us", "lower"},
		{"checkpoint.materialize_us", "us", "lower"},
		{"mem.warm_ns_per_access", "ns", "lower"},
		{"mem.new_us", "us", "lower"},
		{"predictor.warm_ns_per_branch", "ns", "lower"},
	}
	for _, s := range spt.Schemes() {
		m = append(m,
			metricSpec{"pipeline.ns_per_cycle." + string(s), "ns/cycle", "lower"},
			metricSpec{"pipeline.ns_per_inst." + string(s), "ns/inst", "lower"},
			metricSpec{"pipeline.self_ns_per_cycle." + string(s), "ns/cycle", "lower"})
	}
	m = append(m,
		metricSpec{"pipeline.new_us", "us", "lower"},
		metricSpec{"pipeline.boot_us", "us", "lower"},
		metricSpec{"pipeline.useful_frac", "fraction", "higher"})
	for _, s := range protectedSchemes() {
		m = append(m,
			metricSpec{"taint.tick_ns." + string(s), "ns", "lower"},
			metricSpec{"taint.tick_share." + string(s), "fraction", "lower"},
			metricSpec{"taint.hook_calls_per_cycle." + string(s), "calls/cycle", "lower"})
	}
	m = append(m,
		metricSpec{"fuzz.generate_us", "us", "lower"},
		metricSpec{"fuzz.checkleak_ms.p50", "ms", "lower"},
		metricSpec{"fuzz.checkleak_ms.p90", "ms", "lower"},
		metricSpec{"fuzz.oracle_share", "fraction", "lower"},
		metricSpec{"fuzz.phase_s.shape", "s", "lower"},
		metricSpec{"fuzz.phase_s.eval", "s", "lower"},
		metricSpec{"fuzz.phase_s.minimize", "s", "lower"},
		metricSpec{"fuzz.phase_s.other", "s", "lower"},
		metricSpec{"fuzz.rejected_frac", "fraction", "lower"},
		metricSpec{"symx.verify_ms.p50", "ms", "lower"},
		metricSpec{"symx.verify_ms.p90", "ms", "lower"},
		metricSpec{"symx.share", "fraction", "lower"},
		metricSpec{"symx.enumerated_frac", "fraction", "lower"},
		metricSpec{"symx.unknown_frac", "fraction", "lower"})
	for _, w := range workloadList {
		m = append(m, metricSpec{"trace.overhead_pct." + w.name, "%", "lower"})
	}
	return m
}

func protectedSchemes() []spt.Scheme {
	var out []spt.Scheme
	for _, s := range spt.Schemes() {
		if s != spt.UnsafeBaseline {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover. Children may run on other goroutines and
// overlap, so coverage is the union of their intervals.
func selfTimes(spans []span) map[int64]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, end int64
		end = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = s.dur() - float64(covered)
	}
	return self
}

// layerMetrics computes every per-layer metric except the tracing
// overheads from the recorded spans, cells and counts. A metric the trace
// holds too few samples for is NaN and named in the returned problems.
func layerMetrics(tr *tracer) (map[string]float64, []string) {
	spans := tr.spans()
	cells := tr.cells
	self := selfTimes(spans)
	out := map[string]float64{}
	var problems []string

	// durs lists the durations (ns) of the named spans in cells of a kind.
	durs := func(name string, kinds ...string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			for _, k := range kinds {
				if cells[s.Cell].Kind == k {
					xs = append(xs, s.dur())
					break
				}
			}
		}
		return xs
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	pct := func(name string, xs []float64, p float64, scale float64) {
		v, err := percentile(xs, p)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", name, err))
			v = math.NaN()
		}
		out[name] = v / scale
	}

	fig7 := []string{modeDetail, modeCkpt, modeSampled}
	pct("spt.cell_ms.p50", durs("spt.cell", modeDetail), 0.5, 1e6)
	pct("spt.cell_ms.p90", durs("spt.cell", modeDetail), 0.9, 1e6)
	out["workloads.build_ms"] = mean(durs("workloads.build", fig7...)) / 1e6

	// Per-scheme sums over the detailed cells, and totals over the probes
	// and the sampled cells' walks.
	cycles, retired, fetched := map[string]float64{}, map[string]float64{}, map[string]float64{}
	tickNs, tickSampled, tickTimed, calls := map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	var probeInsts, accesses, branches, walked float64
	for _, c := range cells {
		switch c.Kind {
		case "probe":
			probeInsts += float64(c.Retired)
			accesses += float64(c.Accesses)
			branches += float64(c.Branches)
		case modeSampled:
			walked += float64(c.Walked)
		case modeDetail:
			cycles[c.Scheme] += float64(c.Cycles)
			retired[c.Scheme] += float64(c.Retired)
			fetched[c.Scheme] += float64(c.Fetched)
			if h := c.Hooks; h != nil {
				tickNs[c.Scheme] += h.tickTotalNs()
				tickSampled[c.Scheme] += h.TickNs
				tickTimed[c.Scheme] += float64(h.TickTimed)
				calls[c.Scheme] += float64(h.Calls)
			}
		}
	}
	// Instructions per microsecond is millions per second.
	out["emu.run_mips"] = probeInsts / (sum(durs("emu.run", "probe")) / 1e3)
	out["emu.runwarm_mips"] = probeInsts / (sum(durs("emu.runwarm", "probe")) / 1e3)
	out["checkpoint.advance_mips"] = walked / (sum(durs("checkpoint.advance", modeSampled)) / 1e3)
	walk := sum(durs("checkpoint.advance", modeSampled)) + sum(durs("checkpoint.snapshot", modeSampled))
	out["checkpoint.walk_share"] = walk / sum(durs("spt.cell", modeSampled))
	out["checkpoint.snapshot_us"] = mean(durs("checkpoint.snapshot", modeSampled)) / 1e3
	out["checkpoint.materialize_us"] = mean(durs("checkpoint.materialize", modeCkpt)) / 1e3
	out["mem.warm_ns_per_access"] = sum(durs("mem.replay", "probe")) / accesses
	out["mem.new_us"] = mean(durs("mem.new", modeDetail)) / 1e3
	out["predictor.warm_ns_per_branch"] = sum(durs("predictor.replay", "probe")) / branches

	runNs := map[string]float64{}
	for _, s := range spans {
		if s.Name == "pipeline.run" && cells[s.Cell].Kind == modeDetail {
			runNs[cells[s.Cell].Scheme] += s.dur()
		}
	}
	var allRetired, allFetched float64
	for _, sc := range spt.Schemes() {
		s := string(sc)
		out["pipeline.ns_per_cycle."+s] = runNs[s] / cycles[s]
		out["pipeline.ns_per_inst."+s] = runNs[s] / retired[s]
		out["pipeline.self_ns_per_cycle."+s] = (runNs[s] - tickNs[s]) / cycles[s]
		allRetired += retired[s]
		allFetched += fetched[s]
	}
	out["pipeline.new_us"] = mean(durs("pipeline.new", modeDetail)) / 1e3
	out["pipeline.boot_us"] = mean(durs("pipeline.boot", modeCkpt)) / 1e3
	out["pipeline.useful_frac"] = allRetired / allFetched
	for _, sc := range protectedSchemes() {
		s := string(sc)
		out["taint.tick_ns."+s] = max(0, tickSampled[s]/tickTimed[s])
		out["taint.tick_share."+s] = tickNs[s] / runNs[s]
		out["taint.hook_calls_per_cycle."+s] = calls[s] / cycles[s]
	}

	out["fuzz.generate_us"] = mean(durs("fuzz.generate", "verify")) / 1e3
	checkleak := durs("fuzz.checkleak", "verify-cell")
	pct("fuzz.checkleak_ms.p50", checkleak, 0.5, 1e6)
	pct("fuzz.checkleak_ms.p90", checkleak, 0.9, 1e6)
	verifyCells := sum(durs("verify.cell", "verify-cell"))
	out["fuzz.oracle_share"] = sum(checkleak) / verifyCells
	// Campaign phases are seconds per campaign, whatever the pass count.
	var campaigns, other float64
	for _, s := range spans {
		if s.Name == "fuzz.campaign" {
			campaigns++
			other += self[s.ID]
		}
	}
	for _, ph := range []string{"shape", "eval", "minimize"} {
		out["fuzz.phase_s."+ph] = sum(durs("fuzz.phase."+ph, "campaign")) / campaigns / 1e9
	}
	out["fuzz.phase_s.other"] = other / campaigns / 1e9
	out["fuzz.rejected_frac"] = tr.counts["campaign.rejected"] / tr.counts["campaign.units"]
	symxNs := durs("symx.verify", "verify-cell")
	pct("symx.verify_ms.p50", symxNs, 0.5, 1e6)
	pct("symx.verify_ms.p90", symxNs, 0.9, 1e6)
	out["symx.share"] = sum(symxNs) / verifyCells
	out["symx.enumerated_frac"] = tr.counts["verify.enumerated"] / tr.counts["verify.cells"]
	out["symx.unknown_frac"] = tr.counts["verify.unknown"] / tr.counts["verify.cells"]
	return out, problems
}
