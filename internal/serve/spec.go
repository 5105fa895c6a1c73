// Package serve is what remains of a simulation job service that ran the
// evaluation engine behind an HTTP API: job spec normalization and content
// keying (spec.go), the engine call and its result payload helpers
// (engine.go), the content-addressed result cache (cache.go), the
// persistent queue journal (queue.go) and per-tenant token buckets
// (quota.go). The job server, its HTTP/SSE front end and its command are
// deleted, and nothing outside this package's own tests calls what is
// left; ROADMAP.md schedules its deletion.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"spt"
	"spt/internal/checkpoint"
	"spt/internal/workloads"
)

// Job types accepted by POST /v1/jobs.
const (
	TypeSimulate = "simulate" // one cell, payload = one result object
	TypeGrid     = "grid"     // many cells, payload = results in cell order
	TypeFuzz     = "fuzz"     // differential fuzzing campaign report
	TypeVerify   = "verify"   // two-oracle verification campaign report
)

// CellSpec is one simulation cell of a simulate or grid job. The zero
// values of the optional fields mean the engine defaults (unsafe scheme,
// futuristic model, width 3, 120k-instruction budget), which normalization
// makes explicit so "defaulted" and "spelled out" specs coalesce.
type CellSpec struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme,omitempty"`
	Model    string `json:"model,omitempty"`
	// Width is the untaint broadcast width; negative means unbounded.
	Width  int    `json:"width,omitempty"`
	Budget uint64 `json:"budget,omitempty"`
	// Skip fast-forwards the cell's first Skip instructions functionally.
	Skip uint64 `json:"skip,omitempty"`
	// Sample is the SMARTS sampling spec in the CLI syntax
	// ("intervals" or "intervals:warmup:detail"); empty disables sampling.
	Sample string `json:"sample,omitempty"`
}

// Job converts the cell to an engine grid cell.
func (c CellSpec) Job() (spt.Job, error) {
	samp, err := spt.ParseSampleSpec(c.Sample)
	if err != nil {
		return spt.Job{}, err
	}
	return spt.Job{
		Workload: c.Workload,
		Scheme:   spt.Scheme(c.Scheme),
		Model:    spt.AttackModel(c.Model),
		Width:    c.Width,
		Budget:   c.Budget,
		Skip:     c.Skip,
		Sample:   samp,
	}, nil
}

// FuzzSpec parameterizes a fuzz job (spt.RunFuzz).
type FuzzSpec struct {
	Seed     int64    `json:"seed,omitempty"`
	Count    int      `json:"count,omitempty"`
	Schemes  []string `json:"schemes,omitempty"`
	Models   []string `json:"models,omitempty"`
	Minimize int      `json:"minimize,omitempty"`
}

// VerifySpec parameterizes a verify job (spt.RunVerify) over freshly
// generated gadgets.
type VerifySpec struct {
	Seed    int64    `json:"seed,omitempty"`
	Count   int      `json:"count"`
	Schemes []string `json:"schemes,omitempty"`
	Models  []string `json:"models,omitempty"`
}

// JobSpec is the POST /v1/jobs request body. Priority and Tenant shape
// scheduling and admission; they are deliberately NOT part of the
// content-address key, so two tenants asking the same question share one
// simulation and one cached answer.
type JobSpec struct {
	Type string `json:"type"`
	// Cells holds the simulate (exactly one) or grid (one or more) cells.
	Cells  []CellSpec  `json:"cells,omitempty"`
	Fuzz   *FuzzSpec   `json:"fuzz,omitempty"`
	Verify *VerifySpec `json:"verify,omitempty"`
	// Priority orders the queue: higher runs sooner, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// Tenant names the quota bucket; empty is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
}

// defaultBudget mirrors spt.EvalOptions' default per-run budget.
const defaultBudget = 120_000

// allSchemes and allModels render the engine's default grids explicitly,
// so a spec that omits them coalesces with one that spells them out.
func allSchemes() []string {
	var out []string
	for _, s := range spt.Schemes() {
		out = append(out, string(s))
	}
	return out
}

func allModels() []string {
	var out []string
	for _, m := range spt.AttackModels() {
		out = append(out, string(m))
	}
	return out
}

func validSchemes(names []string) error {
	known := map[string]bool{}
	for _, s := range spt.Schemes() {
		known[string(s)] = true
	}
	for _, s := range spt.ExtensionSchemes() {
		known[string(s)] = true
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("serve: unknown scheme %q", n)
		}
	}
	return nil
}

func validModels(names []string) error {
	known := map[string]bool{}
	for _, m := range spt.AttackModels() {
		known[string(m)] = true
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("serve: unknown attack model %q", n)
		}
	}
	return nil
}

// Normalize validates the spec and fills every defaultable field in
// place, so the canonical key sees one spelling per logical job. It
// returns an error suitable for a 400 response.
func (s *JobSpec) Normalize() error {
	switch s.Type {
	case TypeSimulate:
		if len(s.Cells) != 1 {
			return fmt.Errorf("serve: a simulate job needs exactly one cell, got %d", len(s.Cells))
		}
	case TypeGrid:
		if len(s.Cells) == 0 {
			return fmt.Errorf("serve: a grid job needs at least one cell")
		}
	case TypeFuzz:
		if s.Fuzz == nil {
			s.Fuzz = &FuzzSpec{}
		}
	case TypeVerify:
		if s.Verify == nil || s.Verify.Count <= 0 {
			return fmt.Errorf("serve: a verify job needs verify.count > 0")
		}
	default:
		return fmt.Errorf("serve: unknown job type %q (want simulate, grid, fuzz, or verify)", s.Type)
	}

	switch s.Type {
	case TypeSimulate, TypeGrid:
		if s.Fuzz != nil || s.Verify != nil {
			return fmt.Errorf("serve: %s jobs take cells only", s.Type)
		}
		for i := range s.Cells {
			c := &s.Cells[i]
			if _, err := workloads.ByName(c.Workload); err != nil {
				return fmt.Errorf("serve: cell %d: %w", i, err)
			}
			if c.Scheme == "" {
				c.Scheme = string(spt.UnsafeBaseline)
			}
			if err := validSchemes([]string{c.Scheme}); err != nil {
				return fmt.Errorf("serve: cell %d: %w", i, err)
			}
			if c.Model == "" {
				c.Model = string(spt.Futuristic)
			}
			if err := validModels([]string{c.Model}); err != nil {
				return fmt.Errorf("serve: cell %d: %w", i, err)
			}
			if c.Width == 0 {
				c.Width = 3
			}
			if c.Budget == 0 {
				c.Budget = defaultBudget
			}
			if c.Skip > 0 && c.Sample != "" {
				return fmt.Errorf("serve: cell %d: skip and sample are mutually exclusive", i)
			}
			if _, err := spt.ParseSampleSpec(c.Sample); err != nil {
				return fmt.Errorf("serve: cell %d: %w", i, err)
			}
		}
	case TypeFuzz:
		if s.Cells != nil || s.Verify != nil {
			return fmt.Errorf("serve: a fuzz job takes a fuzz section only")
		}
		f := s.Fuzz
		if f.Seed == 0 {
			f.Seed = 1
		}
		if f.Count == 0 {
			f.Count = 32
		}
		if f.Count < 0 || f.Minimize < 0 {
			return fmt.Errorf("serve: fuzz count and minimize must be non-negative")
		}
		if len(f.Schemes) == 0 {
			f.Schemes = allSchemes()
		}
		if err := validSchemes(f.Schemes); err != nil {
			return err
		}
		if len(f.Models) == 0 {
			f.Models = allModels()
		}
		if err := validModels(f.Models); err != nil {
			return err
		}
	case TypeVerify:
		if s.Cells != nil || s.Fuzz != nil {
			return fmt.Errorf("serve: a verify job takes a verify section only")
		}
		v := s.Verify
		if v.Seed == 0 {
			v.Seed = 1
		}
		if len(v.Schemes) == 0 {
			v.Schemes = allSchemes()
		}
		if err := validSchemes(v.Schemes); err != nil {
			return err
		}
		if len(v.Models) == 0 {
			v.Models = allModels()
		}
		if err := validModels(v.Models); err != nil {
			return err
		}
	}
	return nil
}

// progHashes memoizes workload program hashes: the suite is baked into the
// binary, so each workload's program is built and hashed at most once per
// process.
var progHashes sync.Map // workload name -> string (hex hash)

// programHash returns the content hash of the named workload's program —
// the same identity the checkpoint store keys on, so a workload-generator
// change invalidates cached results automatically even within one engine
// version.
func programHash(workload string) (string, error) {
	if h, ok := progHashes.Load(workload); ok {
		return h.(string), nil
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return "", err
	}
	// 1<<40 iterations is Options.WorkloadIters' effectively-unbounded
	// default: the instruction budget, not the loop bound, ends the run.
	h := checkpoint.ProgramHash(w.Build(1 << 40))
	hx := hex.EncodeToString(h[:])
	progHashes.Store(workload, hx)
	return hx, nil
}

// Key content-addresses a normalized spec: a SHA-256 over the engine
// version and every result-determining field — for cells, the program
// CONTENT hash (not the workload name) plus (scheme, model, width,
// budget, skip, sample). Priority and tenant are excluded on purpose.
// The key doubles as the job ID and the result-cache address.
func (s *JobSpec) Key() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %s\ntype %s\n", spt.EngineVersion, s.Type)
	switch s.Type {
	case TypeSimulate, TypeGrid:
		for _, c := range s.Cells {
			ph, err := programHash(c.Workload)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "cell %s %s %s %d %d %d %q\n",
				ph, c.Scheme, c.Model, c.Width, c.Budget, c.Skip, c.Sample)
		}
	case TypeFuzz:
		f := s.Fuzz
		fmt.Fprintf(&b, "fuzz seed=%d count=%d minimize=%d schemes=%s models=%s\n",
			f.Seed, f.Count, f.Minimize, strings.Join(f.Schemes, ","), strings.Join(f.Models, ","))
	case TypeVerify:
		v := s.Verify
		fmt.Fprintf(&b, "verify seed=%d count=%d schemes=%s models=%s\n",
			v.Seed, v.Count, strings.Join(v.Schemes, ","), strings.Join(v.Models, ","))
	default:
		return "", fmt.Errorf("serve: unknown job type %q", s.Type)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// schemeList and modelList convert validated name lists to engine types.
func schemeList(names []string) []spt.Scheme {
	out := make([]spt.Scheme, len(names))
	for i, n := range names {
		out[i] = spt.Scheme(n)
	}
	return out
}

func modelList(names []string) []spt.AttackModel {
	out := make([]spt.AttackModel, len(names))
	for i, n := range names {
		out[i] = spt.AttackModel(n)
	}
	return out
}
