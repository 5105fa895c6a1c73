// Package spt is a from-scratch reproduction of "Speculative Privacy
// Tracking (SPT): Leaking Information From Speculative Execution Without
// Compromising Privacy" (MICRO 2021): a cycle-level out-of-order processor
// simulator with the paper's full family of protection schemes (SPT in all
// its Table 2 configurations, STT, and the secure delay-to-visibility-point
// baseline), the SPEC-CPU2017-like and constant-time workload suite, and a
// benchmark harness that regenerates every table and figure of the paper's
// evaluation.
//
// The public API is string-based: pick a Scheme and AttackModel, then run a
// named workload (Workloads lists them) or your own µRISC assembly text.
//
//	res, err := spt.Run("mcf", spt.Options{
//	    Scheme: spt.SPTFull,
//	    Model:  spt.Futuristic,
//	    MaxInstructions: 500_000,
//	})
//	fmt.Println(res.Cycles, res.IPC())
package spt

import (
	"context"
	"fmt"

	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/taint"
)

// AttackModel selects the visibility-point definition (paper §2.2.1).
type AttackModel string

const (
	// Spectre covers control-flow speculation only.
	Spectre AttackModel = "spectre"
	// Futuristic covers all forms of speculation.
	Futuristic AttackModel = "futuristic"
)

// AttackModels lists both models in the paper's presentation order.
func AttackModels() []AttackModel { return []AttackModel{Futuristic, Spectre} }

func (m AttackModel) internal() (pipeline.AttackModel, error) {
	switch m {
	case Spectre:
		return pipeline.Spectre, nil
	case Futuristic, "":
		return pipeline.Futuristic, nil
	}
	return 0, fmt.Errorf("spt: unknown attack model %q", string(m))
}

// Scheme names a processor configuration from the paper's Table 2.
type Scheme string

const (
	// UnsafeBaseline is the unmodified, insecure processor.
	UnsafeBaseline Scheme = "unsafe"
	// SecureBaseline delays loads/stores (and branch resolution effects)
	// until the visibility point: the same protection scope as SPT.
	SecureBaseline Scheme = "secure"
	// SPTFwdNoShadowL1 enables forward untainting only.
	SPTFwdNoShadowL1 Scheme = "spt-fwd"
	// SPTBwdNoShadowL1 adds backward untainting.
	SPTBwdNoShadowL1 Scheme = "spt-bwd"
	// SPTFull is the full SPT design: forward+backward untainting plus the
	// shadow L1 (SPT{Bwd,ShadowL1}).
	SPTFull Scheme = "spt"
	// SPTBwdShadowMem replaces the shadow L1 with idealized all-memory
	// taint tracking.
	SPTBwdShadowMem Scheme = "spt-shadowmem"
	// SPTIdealShadowMem further adds single-cycle fixpoint untainting.
	SPTIdealShadowMem Scheme = "spt-ideal"
	// STT is Speculative Taint Tracking (MICRO'19): protects only
	// speculatively-accessed data.
	STT Scheme = "stt"

	// SPTOblivious is an extension beyond the paper's Table 2: full SPT
	// taint tracking with SDO-style data-oblivious execution of blocked
	// transmitters instead of delaying them (paper §6.3 notes SPT composes
	// with such policies).
	SPTOblivious Scheme = "spt-sdo"
)

// Schemes lists every configuration in the paper's Table 2 order.
func Schemes() []Scheme {
	return []Scheme{
		UnsafeBaseline, SecureBaseline,
		SPTFwdNoShadowL1, SPTBwdNoShadowL1, SPTFull,
		SPTBwdShadowMem, SPTIdealShadowMem, STT,
	}
}

// ExtensionSchemes lists configurations beyond the paper's Table 2.
func ExtensionSchemes() []Scheme { return []Scheme{SPTOblivious} }

// Describe returns the Table 2 description of the scheme.
func (s Scheme) Describe() string {
	switch s {
	case UnsafeBaseline:
		return "An unmodified, insecure processor."
	case SecureBaseline:
		return "Loads and stores delayed until reaching the VP."
	case SPTFwdNoShadowL1:
		return "Forward untainting only (in RS). No shadow L1."
	case SPTBwdNoShadowL1:
		return "Forward and backward untainting (in RS). No shadow L1."
	case SPTFull:
		return "Forward and backward untainting (in RS) plus shadow L1 (full SPT design)."
	case SPTBwdShadowMem:
		return "Forward and backward untainting (in RS) plus all-memory taint tracking."
	case SPTIdealShadowMem:
		return "Ideal forward and backward untainting (in RS) plus all-memory taint tracking."
	case STT:
		return "Only protects speculatively-accessed data."
	case SPTOblivious:
		return "Full SPT with SDO-style oblivious execution of blocked transmitters (extension)."
	}
	return "unknown scheme"
}

// Options configures a simulation run.
type Options struct {
	// Scheme defaults to UnsafeBaseline.
	Scheme Scheme
	// Model defaults to Futuristic.
	Model AttackModel
	// UntaintBroadcastWidth defaults to 3 (paper §9.4). Ignored by
	// non-SPT schemes; 0 or negative means unbounded.
	UntaintBroadcastWidth int
	// MaxInstructions bounds retired instructions (the SimPoint stand-in).
	// Default 200,000.
	MaxInstructions uint64
	// WarmupInstructions run before measurement begins: caches, predictors
	// and taint state stay warm, but Cycles/Instructions exclude the
	// warmup (SimPoint-style methodology). Default 0.
	WarmupInstructions uint64
	// MaxCycles is a safety bound. Default 400x MaxInstructions.
	MaxCycles uint64
	// WorkloadIters sets the workload's outer-loop iteration count.
	// Default: effectively unbounded (the instruction budget stops the
	// run).
	WorkloadIters int64
	// TrackInsts enables the untaint-event breakdown and per-cycle
	// histogram collection in the result (always on for SPT schemes; this
	// flag mirrors the artifact's --track-insts).
	TrackInsts bool

	// SkipInstructions fast-forwards this many instructions on the
	// functional emulator — warming caches, the TLB, and the branch
	// predictors along the way — before detailed simulation starts. The
	// gem5/SimPoint-style checkpoint methodology: Cycles/Instructions cover
	// only the detailed region; Result.FastForwarded records the prefix.
	// Mutually exclusive with Sample.
	SkipInstructions uint64
	// Sample enables SMARTS-style sampled simulation (see SampleSpec):
	// MaxInstructions becomes the whole-run budget and Cycles becomes an
	// estimate from the measured windows. Mutually exclusive with
	// SkipInstructions and WarmupInstructions.
	Sample SampleSpec
	// Checkpoints, if non-nil, caches fast-forward checkpoints so runs
	// sharing a (workload, skip) prefix execute it once. Sampled runs take
	// their window checkpoints from it too: the store extends one kept walk
	// per workload, so sampled runs of one workload walk its prefix once
	// between them. Grid harnesses (RunJobs and the figure harnesses) wire a
	// shared store automatically when Skip or Sample is set; set this to
	// also share across separate calls or to use an on-disk cache directory
	// (which only Skip runs use).
	Checkpoints *CheckpointStore

	// Jobs is the number of measured windows a sampled run simulates
	// concurrently (each window boots from its own copy-on-write snapshot
	// and cloned warm state). 0 or 1 runs windows serially. Results are
	// bit-identical for every value — only host wall-clock time changes.
	// Ignored outside sampled mode.
	Jobs int
	// Context, if non-nil, cancels the run cooperatively: it is checked
	// between sample windows and every few thousand simulated cycles within
	// a detailed region. On cancellation Run returns context.Cause. The
	// functional fast-forward pass itself is not interruptible.
	Context context.Context
}

const defaultBroadcastWidth = 3

func (o Options) withDefaults() Options {
	if o.Scheme == "" {
		o.Scheme = UnsafeBaseline
	}
	if o.Model == "" {
		o.Model = Futuristic
	}
	if o.UntaintBroadcastWidth == 0 {
		o.UntaintBroadcastWidth = defaultBroadcastWidth
	}
	if o.MaxInstructions == 0 {
		o.MaxInstructions = 200_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 400 * o.MaxInstructions
	}
	if o.WorkloadIters == 0 {
		o.WorkloadIters = 1 << 40
	}
	return o
}

// policy builds the pipeline policy for the scheme. The returned *taint.SPT
// (or *taint.STT) is also returned for stats extraction; nil for the unsafe
// baseline.
func (o Options) policy() (pipeline.Policy, *taint.SPT, *taint.STT, error) {
	w := o.UntaintBroadcastWidth
	mk := func(cfg taint.SPTConfig) (pipeline.Policy, *taint.SPT, *taint.STT, error) {
		p := taint.NewSPT(cfg)
		return p, p, nil, nil
	}
	switch o.Scheme {
	case UnsafeBaseline:
		return nil, nil, nil, nil
	case SecureBaseline:
		return mk(taint.SPTConfig{Method: taint.UntaintNone})
	case SPTFwdNoShadowL1:
		return mk(taint.SPTConfig{Method: taint.UntaintFwd, BroadcastWidth: w})
	case SPTBwdNoShadowL1:
		return mk(taint.SPTConfig{Method: taint.UntaintBwd, BroadcastWidth: w})
	case SPTFull:
		return mk(taint.SPTConfig{Method: taint.UntaintBwd, Shadow: taint.ShadowL1, BroadcastWidth: w})
	case SPTBwdShadowMem:
		return mk(taint.SPTConfig{Method: taint.UntaintBwd, Shadow: taint.ShadowMem, BroadcastWidth: w})
	case SPTIdealShadowMem:
		return mk(taint.SPTConfig{Method: taint.UntaintIdeal, Shadow: taint.ShadowMem})
	case STT:
		p := taint.NewSTT()
		return p, nil, p, nil
	case SPTOblivious:
		return mk(taint.SPTConfig{
			Method: taint.UntaintBwd, Shadow: taint.ShadowL1, BroadcastWidth: w,
			Protect: taint.ObliviousExecution,
		})
	}
	return nil, nil, nil, fmt.Errorf("spt: unknown scheme %q", string(o.Scheme))
}

// MachineTable renders the simulated machine parameters (paper Table 1).
func MachineTable() string {
	core := pipeline.DefaultConfig()
	h := mem.DefaultHierarchyConfig()
	return fmt.Sprintf(`Simulated architecture parameters (paper Table 1)
Pipeline        %d fetch/decode/issue/commit, %d/%d SQ/LQ entries, %d ROB, %d MSHRs, LTAGE-class branch predictor
L1 I-Cache      %d KB, %d B line, %d-way, %d-cycle latency
L1 D-Cache      %d KB, %d B line, %d-way, %d-cycle latency
L2 Cache        %d KB, %d B line, %d-way, %d-cycle latency
L3 Cache        %d MB, %d B line, %d-way, %d-cycle latency
Network         %dx%d mesh, %d b link width, %d cycle latency per hop
Coherence       Two-Level MESI protocol
DRAM            %d cycles (50 ns) after L3
Untaint broadcast width (SPT only)  %d
`,
		core.FetchWidth, core.SQSize, core.LQSize, core.ROBSize, h.MSHRs,
		h.L1I.SizeBytes>>10, h.L1I.LineBytes, h.L1I.Ways, h.L1I.LatencyCycles,
		h.L1D.SizeBytes>>10, h.L1D.LineBytes, h.L1D.Ways, h.L1D.LatencyCycles,
		h.L2.SizeBytes>>10, h.L2.LineBytes, h.L2.Ways, h.L2.LatencyCycles,
		h.L3.SizeBytes>>20, h.L3.LineBytes, h.L3.Ways, h.L3.LatencyCycles,
		h.Mesh.Width, h.Mesh.Height, h.Mesh.FlitBytes*8, h.Mesh.LinkCycles,
		h.DRAMCycles, defaultBroadcastWidth)
}

// SchemeTable renders the evaluated design variants (paper Table 2) plus
// this repository's extensions.
func SchemeTable() string {
	out := "Evaluated design variants (paper Table 2)\n"
	for _, s := range Schemes() {
		out += fmt.Sprintf("%-16s %s\n", string(s), s.Describe())
	}
	for _, s := range ExtensionSchemes() {
		out += fmt.Sprintf("%-16s %s\n", string(s), s.Describe())
	}
	return out
}
