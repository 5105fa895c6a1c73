package spt

import (
	"encoding/json"
	"fmt"
	"strings"
)

// PerfSchemes is the scheme subset the simulator-throughput suite measures.
// The three points span the simulator's cost range: the unprotected machine
// (no policy), STT (transitive untaint), and full SPT (untaint rules, the
// bounded broadcast and shadow-L1 bookkeeping).
func PerfSchemes() []Scheme { return []Scheme{UnsafeBaseline, STT, SPTFull} }

// PerfRow is one (workload, scheme) throughput measurement. The simulated
// columns (cycles, instructions, IPC) are deterministic; the host columns
// depend on the machine running the simulator and are zeroed by
// Deterministic before golden comparison.
type PerfRow struct {
	Workload     string
	Scheme       Scheme
	Cycles       uint64
	Instructions uint64
	// FastForwarded counts functionally executed instructions (checkpointed
	// or sampled runs); 0 for plain detailed runs.
	FastForwarded uint64
	IPC           float64

	// Host-side simulator throughput for this run. HostSeconds is wall
	// clock; HostCPUSeconds is aggregate CPU time across concurrent window
	// workers (the two coincide for serial runs — see HostStats).
	HostSeconds      float64
	HostCPUSeconds   float64
	SimKIPS          float64
	NsPerInstruction float64
	// EffectiveKIPS includes fast-forwarded instructions in the numerator
	// and the functional pass in the denominator — the methodology-level
	// throughput a checkpointed or sampled run achieves.
	EffectiveKIPS float64
}

// PerfReport is the simulator-throughput suite's result.
type PerfReport struct {
	// Engine is the EngineVersion that produced the report, so archived
	// reports are distinguishable across code changes. The benchmark's
	// recorded numbers live in bench/README.md.
	Engine string
	Model  AttackModel
	Budget uint64
	Rows   []PerfRow
}

// RunPerf measures simulator throughput for every workload in the suite
// under the PerfSchemes configurations. Runs execute strictly sequentially
// regardless of opt.Jobs: concurrent simulations would contend for cores
// and memory bandwidth and distort the host-time columns.
func RunPerf(opt EvalOptions) (*PerfReport, error) {
	opt = opt.withDefaults()
	names, err := opt.names()
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{Engine: EngineVersion, Model: Futuristic, Budget: opt.Budget}
	// One store for the whole suite: with opt.Skip set, each workload's
	// functional prefix runs once, not once per scheme.
	store := opt.Checkpoints
	if store == nil && opt.Skip > 0 {
		store = NewCheckpointStore("")
	}
	for _, name := range names {
		for _, s := range PerfSchemes() {
			if opt.Context != nil {
				if err := opt.Context.Err(); err != nil {
					return nil, err
				}
			}
			res, err := Run(name, Options{
				Scheme:                s,
				Model:                 Futuristic,
				UntaintBroadcastWidth: opt.Width,
				MaxInstructions:       opt.Budget,
				SkipInstructions:      opt.Skip,
				Sample:                opt.Sample,
				Checkpoints:           store,
				Jobs:                  opt.WindowJobs,
				Context:               opt.Context,
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, PerfRow{
				Workload:         name,
				Scheme:           s,
				Cycles:           res.Cycles,
				Instructions:     res.Instructions,
				FastForwarded:    res.FastForwarded,
				IPC:              res.IPC(),
				HostSeconds:      res.Host.Seconds,
				HostCPUSeconds:   res.Host.CPUSeconds,
				SimKIPS:          res.Host.SimKIPS,
				NsPerInstruction: res.Host.NsPerInstruction,
				EffectiveKIPS:    res.Host.EffectiveSimKIPS,
			})
		}
	}
	return rep, nil
}

// Deterministic returns a copy of the report with every host-time field
// zeroed. Golden fixtures compare this form; the host columns vary from
// machine to machine and run to run.
func (r *PerfReport) Deterministic() *PerfReport {
	out := &PerfReport{Engine: r.Engine, Model: r.Model, Budget: r.Budget, Rows: make([]PerfRow, len(r.Rows))}
	copy(out.Rows, r.Rows)
	for i := range out.Rows {
		out.Rows[i].HostSeconds = 0
		out.Rows[i].HostCPUSeconds = 0
		out.Rows[i].SimKIPS = 0
		out.Rows[i].NsPerInstruction = 0
		out.Rows[i].EffectiveKIPS = 0
	}
	return out
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *PerfReport) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// Text renders the report as an aligned table.
func (r *PerfReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator throughput (%s model, budget %d instructions/run)\n", r.Model, r.Budget)
	fmt.Fprintf(&b, "%-12s %-8s %12s %12s %10s %7s %12s %12s %12s %10s %10s\n",
		"benchmark", "scheme", "cycles", "insts", "ff-insts", "ipc", "host-sec", "cpu-sec", "sim-KIPS", "ns/inst", "eff-KIPS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-8s %12d %12d %10d %7.3f %12.3f %12.3f %12.1f %10.1f %10.1f\n",
			row.Workload, row.Scheme, row.Cycles, row.Instructions, row.FastForwarded, row.IPC,
			row.HostSeconds, row.HostCPUSeconds, row.SimKIPS, row.NsPerInstruction, row.EffectiveKIPS)
	}
	return b.String()
}
