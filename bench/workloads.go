package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"spt"
)

// sizes scales every workload. full is what the benchmark measures; the
// tests drive the same code at a toy size.
type sizes struct {
	// Kernels restricts the Figure 7 suite; nil runs all 19 kernels.
	Kernels []string

	DetailBudget  uint64
	CkptSkip      uint64
	CkptBudget    uint64
	SampledBudget uint64
	Sample        spt.SampleSpec

	Generations int
	PerGen      int
	VerifyCount int
	CorpusDir   string

	// ProbeInsts is how far the traced run's emulator probe runs each
	// kernel; ReplayInsts is the warm event stream it replays.
	ProbeInsts  uint64
	ReplayInsts uint64
}

// full sizes one repetition to under a second of wall clock on a 2-vCPU
// host, so a 20-second run holds about twenty. Host noise comes in
// episodes of seconds; with many short repetitions some land between them.
// The Figure 7 budgets are far below the EXPERIMENTS.md budget for the
// same reason.
var full = sizes{
	DetailBudget:  5_000,
	CkptSkip:      1_000_000,
	CkptBudget:    2_500,
	SampledBudget: 250_000,
	Sample:        spt.SampleSpec{Intervals: 4, Warmup: 100, Detail: 400},
	Generations:   4,
	PerGen:        12,
	VerifyCount:   16,
	CorpusDir:     "testdata/fuzz",
	ProbeInsts:    1_000_000,
	ReplayInsts:   200_000,
}

// outcome is what one repetition (untraced or traced) produced, after the
// clock stopped.
type outcome struct {
	// Ops counts attempted operations: grid cells, evaluated campaign
	// units, or verify cells.
	Ops int `json:"ops"`
	// Failed counts failed operations. A failed invariant fails every op.
	Failed int `json:"failed"`
	// Report is the SHA-256 of the workload's deterministic report (the
	// Figure 7, campaign or verify JSON with its engine stamp dropped).
	Report string `json:"report,omitempty"`
	// Cells is the SHA-256 of the per-cell results a traced re-drive
	// reproduces: cycle counts for Figure 7, the cell table for verify,
	// the whole report for the campaign.
	Cells string `json:"cells"`
	// Problem names the first failed check; empty when all hold.
	Problem string `json:"problem,omitempty"`
}

// fail marks every op failed for the named reason, keeping the first.
func (o *outcome) fail(format string, args ...any) {
	o.Failed = o.Ops
	if o.Problem == "" {
		o.Problem = fmt.Sprintf(format, args...)
	}
}

// untraced is one prepared repetition: setup is done, timed is the
// public-API call the benchmark measures, and check runs the digests and
// invariants once the clock has stopped.
type untraced struct {
	timed func() error
	check func() outcome
}

// workload is one benchmark workload: how to run it through the public
// API, and how the traced run re-drives the same work through the internal
// packages.
type workload struct {
	name string
	why  string
	// seeded is true when the inputs depend on -seed. The Figure 7 inputs
	// are the paper's fixed kernels.
	seeded  bool
	prepare func(sz sizes, seed int64, jobs int) (untraced, error)
	traced  func(tr *tracer, sz sizes, seed int64, jobs int) (outcome, error)
}

// Figure 7 modes.
const (
	modeDetail  = "detail"
	modeCkpt    = "ckpt"
	modeSampled = "sampled"
)

var workloadList = []workload{
	{
		name:    "fig7-detail",
		why:     "Figure 7 grid in full detail: the detailed core and taint policies do all the work; the control for warming and checkpoint changes",
		prepare: fig7Prepare(modeDetail),
		traced:  fig7Traced(modeDetail),
	},
	{
		name:    "fig7-ckpt",
		why:     "Figure 7 grid after a 1M-instruction shared checkpoint: one prefix walk per kernel, then a clone and a boot per cell",
		prepare: fig7Prepare(modeCkpt),
		traced:  fig7Traced(modeCkpt),
	},
	{
		name:    "fig7-sampled",
		why:     "Figure 7 grid in sampled mode: each cell walks and warms its own 250k-instruction prefix, so warming dominates",
		prepare: fig7Prepare(modeSampled),
		traced:  fig7Traced(modeSampled),
	},
	{
		name:    "campaign",
		why:     "coverage-guided fuzzing campaign: thousands of tiny pipeline runs where building the core dominates; no symbolic oracle",
		seeded:  true,
		prepare: campaignPrepare,
		traced:  campaignTraced,
	},
	{
		name:    "verify",
		why:     "two-oracle verify campaign: the only workload that runs the symbolic executor beside the differential oracle",
		seeded:  true,
		prepare: verifyPrepare,
		traced:  verifyTraced,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i], nil
		}
		names = append(names, workloadList[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// apiSeed is the campaign/verify seed of repetition rep in a run with the
// given -seed. Repetitions cycle through seedCycle distinct seeds, so one
// run averages over several input sets, each repeated a few times; the
// seeds are 1000 apart because a campaign or verify seed s also uses s+1,
// s+2, ... for its later programs.
func apiSeed(seed int64, rep int) int64 {
	return (seed*seedCycle + int64(rep%seedCycle) + 1) * 1000
}

const seedCycle = 16

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// cellCycles is one Figure 7 cell's simulated cycle count.
type cellCycles struct {
	Workload string
	Scheme   spt.Scheme
	Cycles   uint64
}

// cyclesDigest hashes a Figure 7 grid's cycle counts in grid order; the
// untraced and traced paths must agree on it.
func cyclesDigest(cells []cellCycles) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %s %d\n", c.Workload, c.Scheme, c.Cycles)
	}
	return sha([]byte(b.String()))
}

func fig7Options(mode string, sz sizes, jobs int) spt.EvalOptions {
	opt := spt.EvalOptions{Workloads: sz.Kernels, Jobs: jobs, WindowJobs: 1}
	switch mode {
	case modeDetail:
		opt.Budget = sz.DetailBudget
	case modeCkpt:
		opt.Budget, opt.Skip = sz.CkptBudget, sz.CkptSkip
	case modeSampled:
		opt.Budget, opt.Sample = sz.SampledBudget, sz.Sample
	}
	return opt
}

func fig7Prepare(mode string) func(sz sizes, seed int64, jobs int) (untraced, error) {
	return func(sz sizes, _ int64, jobs int) (untraced, error) {
		opt := fig7Options(mode, sz, jobs)
		if mode == modeCkpt {
			opt.Checkpoints = spt.NewCheckpointStore("")
		}
		var fig *spt.Figure7
		return untraced{
			timed: func() (err error) {
				fig, err = spt.RunFigure7(spt.Futuristic, opt)
				return err
			},
			check: func() outcome {
				var cells []cellCycles
				out := outcome{Ops: len(fig.Rows) * len(fig.Schemes)}
				for _, row := range fig.Rows {
					if n := row.Normalized[spt.UnsafeBaseline]; n != 1 {
						out.fail("%s: unsafe column is %v, not 1", row.Workload, n)
					}
					for _, s := range fig.Schemes {
						cells = append(cells, cellCycles{row.Workload, s, row.Cycles[s]})
					}
				}
				if mode == modeCkpt {
					if b := opt.Checkpoints.Stats().Builds; b != uint64(len(fig.Rows)) {
						out.fail("checkpoint store built %d prefixes for %d kernels", b, len(fig.Rows))
					}
				}
				js, err := json.Marshal(fig)
				if err != nil {
					out.fail("encoding Figure 7: %v", err)
				}
				out.Report = sha(js)
				out.Cells = cyclesDigest(cells)
				return out
			},
		}, nil
	}
}

func campaignOptions(sz sizes, seed int64, jobs int) spt.CampaignOptions {
	return spt.CampaignOptions{
		Seed: seed, Generations: sz.Generations, PerGen: sz.PerGen,
		CorpusDir: sz.CorpusDir, Jobs: jobs,
	}
}

func campaignPrepare(sz sizes, seed int64, jobs int) (untraced, error) {
	opt := campaignOptions(sz, seed, jobs)
	var rep *spt.CampaignReport
	return untraced{
		timed: func() (err error) {
			rep, err = spt.RunCampaign(opt)
			return err
		},
		check: func() outcome { return campaignCheck(rep) },
	}, nil
}

// campaignCheck digests a campaign report and checks its invariants: no
// unexpected leak cluster, no evaluation error, nothing pending.
func campaignCheck(rep *spt.CampaignReport) outcome {
	out := outcome{Ops: rep.Evaluated, Failed: len(rep.EvalErrors)}
	if len(rep.EvalErrors) > 0 {
		out.Problem = "evaluation error: " + rep.EvalErrors[0]
	}
	if bad := rep.Unexpected(); len(bad) > 0 {
		out.fail("%d unexpected leak clusters", len(bad))
	}
	if rep.Pending != 0 {
		out.fail("%d units pending", rep.Pending)
	}
	r := *rep
	r.Engine = ""
	js, err := r.JSON()
	if err != nil {
		out.fail("encoding campaign report: %v", err)
	}
	out.Report = sha([]byte(js))
	out.Cells = out.Report
	return out
}

func verifyPrepare(sz sizes, seed int64, jobs int) (untraced, error) {
	opt := spt.VerifyOptions{CorpusDir: sz.CorpusDir, Seed: seed, Count: sz.VerifyCount, Jobs: jobs}
	var rep *spt.VerifyReport
	return untraced{
		timed: func() (err error) {
			rep, err = spt.RunVerify(opt)
			return err
		},
		check: func() outcome {
			out := outcome{Ops: rep.Programs * len(rep.Schemes) * len(rep.Models)}
			out.Failed = len(rep.Disagreements) + len(rep.Mismatches)
			if !rep.OK() {
				out.Problem = fmt.Sprintf("%d oracle disagreements, %d ground-truth mismatches",
					len(rep.Disagreements), len(rep.Mismatches))
			}
			r := *rep
			r.Engine = ""
			js, err := r.JSON()
			if err != nil {
				out.fail("encoding verify report: %v", err)
			}
			out.Report = sha([]byte(js))
			out.Cells = verifyCellsDigest(rep.Cells)
			return out
		},
	}, nil
}

func verifyCellsDigest(cells []spt.VerifyCellStats) string {
	js, err := json.Marshal(cells)
	if err != nil {
		panic(err) // a slice of plain structs always encodes
	}
	return sha(js)
}
