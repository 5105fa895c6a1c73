package spt

import (
	"fmt"
	"sort"
	"strings"

	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/predictor"
	"spt/internal/stats"
	"spt/internal/taint"
)

// Result holds everything a simulation run measured.
type Result struct {
	Workload     string
	Scheme       Scheme
	Model        AttackModel
	Cycles       uint64
	Instructions uint64
	// FastForwarded counts instructions executed functionally (emulator
	// fast-forward) rather than in detail: the skip prefix for checkpointed
	// runs, or everything outside the detailed windows for sampled runs.
	FastForwarded uint64

	// Sampled is non-nil for sampled runs (Options.Sample); it reports the
	// per-interval CPI samples and the confidence interval behind the
	// Cycles estimate.
	Sampled *SampleStats

	Pipeline  pipeline.Stats
	Memory    mem.HierarchyStats
	L1D       mem.CacheStats
	L2        mem.CacheStats
	L3        mem.CacheStats
	TLBMisses uint64
	Predictor predictor.UnitStats

	// Taint is non-nil for protected schemes.
	Taint *TaintStats

	// Stats is the full gem5-style counter dump: every registered scalar,
	// distribution, and formula in registration order (see internal/stats).
	// It contains only simulation-derived values — host-dependent
	// measurements are never registered — so it is deterministic and safe
	// for golden comparisons.
	Stats *stats.Dump

	// Host measures the simulator's own throughput for the measured
	// (post-warmup) window. Host fields depend on the machine running the
	// simulation, so they are excluded from StatsText and from every golden
	// comparison.
	Host HostStats
}

// HostStats reports simulator throughput: wall-clock cost of the run on
// the host, not a property of the simulated machine.
type HostStats struct {
	// Seconds is the host wall-clock time of the run (for sampled runs, the
	// whole sampled pass; otherwise the measured window).
	Seconds float64
	// CPUSeconds is the aggregate host CPU time the run consumed across
	// every concurrent worker: the functional pass plus the sum of each
	// detailed region's own time. For serial runs CPUSeconds ≈ Seconds
	// (plus the fast-forward pass, which Seconds excludes for checkpointed
	// runs); for parallel-window sampled runs CPUSeconds exceeds Seconds,
	// and their ratio is the effective parallel speedup. When runs share a
	// CheckpointStore, a functional pass is charged to the run that
	// executed it: for a sampled run, the run that extended the store's walk
	// to a window. Runs served from the store count only the time they
	// waited for it.
	CPUSeconds float64
	// SimKIPS is simulated (retired) kilo-instructions per host CPU second
	// of detailed simulation — per-core simulator throughput, independent
	// of how many windows ran concurrently.
	SimKIPS float64
	// NsPerInstruction is host nanoseconds per simulated instruction.
	NsPerInstruction float64
	// EffectiveSimKIPS counts fast-forwarded instructions too: total
	// instructions covered (functional + detailed) per wall-clock second,
	// including the functional pass's own time. This is the
	// methodology-level throughput — it improves both with fast-forwarding
	// and with parallel windows.
	EffectiveSimKIPS float64
}

// TaintStats summarizes the taint engine's activity.
type TaintStats struct {
	// Events maps untaint-event kind (see EventNames) to count.
	Events map[string]uint64
	// UntaintHist[i] counts untainting cycles with i+1 register untaints
	// (last bucket: 10 or more) — paper Figure 9.
	UntaintHist       [10]uint64
	UntaintingCycles  uint64
	BroadcastDeferred uint64
	MemUntaints       uint64
	// TaintedAtRename counts instructions whose output was tainted at
	// rename; STLPublicHits counts store-to-load forwards permitted openly
	// (the STLPublic fast path).
	TaintedAtRename uint64
	STLPublicHits   uint64
}

// EventName returns the stable name of untaint-event kind k.
func EventName(k int) string { return taint.EventKind(k).String() }

// EventNames lists the untaint-event kinds in breakdown order (Figure 8).
func EventNames() []string {
	out := make([]string, taint.NumEvents)
	for k := 0; k < int(taint.NumEvents); k++ {
		out[k] = EventName(k)
	}
	return out
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per retired instruction (the unit the paper's
// Figure 7 normalizes: execution time for a fixed instruction budget).
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// NormalizedTo returns this run's execution time relative to a baseline
// run of the same workload (Figure 7's y-axis).
func (r *Result) NormalizedTo(base *Result) float64 {
	if base == nil || base.CPI() == 0 {
		return 0
	}
	return r.CPI() / base.CPI()
}

// StatsText renders the run in the artifact's stats.txt style: one counter
// per line with a short description.
func (r *Result) StatsText() string {
	var b strings.Builder
	w := func(name string, v interface{}, desc string) {
		fmt.Fprintf(&b, "%-34s %14v  # %s\n", name, v, desc)
	}
	fmt.Fprintf(&b, "---------- Begin Simulation Statistics ----------\n")
	fmt.Fprintf(&b, "# workload=%s scheme=%s model=%s\n", r.Workload, r.Scheme, r.Model)
	w("numCycles", r.Cycles, "total cycles simulated")
	w("committedInsts", r.Instructions, "instructions retired")
	w("ipc", fmt.Sprintf("%.4f", r.IPC()), "retired instructions per cycle")
	w("fetchedInsts", r.Pipeline.Fetched, "instructions fetched (incl. wrong path)")
	w("branchResolutions", r.Pipeline.BranchResolutions, "control-flow resolutions")
	w("branchMispredicts", r.Pipeline.BranchMispredicts, "mispredicted control flow")
	w("squashes", r.Pipeline.Squashes, "pipeline squashes")
	w("squashedInsts", r.Pipeline.SquashedInstrs, "instructions squashed")
	w("memOrderViolations", r.Pipeline.MemViolations, "memory-dependence squashes")
	w("stlForwards", r.Pipeline.STLForwards, "store-to-load forwards")
	w("transmitterDelayCycles", r.Pipeline.TransmitterDelays, "load/store cycles delayed by protection")
	w("resolutionDelayCycles", r.Pipeline.ResolutionDelays, "branch-resolution cycles delayed by protection")
	w("l1dAccesses", r.L1D.Accesses, "L1D accesses")
	w("l1dMisses", r.L1D.Misses, "L1D misses")
	w("l2Misses", r.L2.Misses, "L2 misses")
	w("l3Misses", r.L3.Misses, "L3 misses")
	w("dramAccesses", r.Memory.DRAMAccesses, "DRAM accesses")
	w("dtlbMisses", r.TLBMisses, "data TLB misses")
	if r.Taint != nil {
		var total uint64
		names := make([]string, 0, len(r.Taint.Events))
		for k := range r.Taint.Events {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			total += r.Taint.Events[k]
			w("untaint."+k, r.Taint.Events[k], "register untaint events ("+k+")")
		}
		w("untaint.total", total, "all register untaint events")
		w("untaint.cycles", r.Taint.UntaintingCycles, "cycles with >=1 untaint")
		w("untaint.deferred", r.Taint.BroadcastDeferred, "untaints deferred by broadcast width")
		w("untaint.memBytesOps", r.Taint.MemUntaints, "shadow L1/memory untaint operations")
	}
	fmt.Fprintf(&b, "---------- End Simulation Statistics   ----------\n")
	return b.String()
}
