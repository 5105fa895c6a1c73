package spt

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/symx"
)

// VerifyOptions configures a two-oracle verification campaign
// (RunVerify): every program in the workload — checked-in corpus
// reproducers plus freshly generated gadgets — is judged by both the
// differential fuzz oracle and the relational symbolic executor, and the
// two verdicts are reconciled per (scheme, model) cell. The report is a
// pure function of the options minus Jobs/Context/Progress.
type VerifyOptions struct {
	// CorpusDir, if non-empty, loads every .urisc reproducer in the
	// directory into the workload. Corpus metadata (leaks-under /
	// clean-under) becomes a third, recorded expectation the oracles are
	// checked against.
	CorpusDir string
	// Seed is the base RNG seed for generated gadgets; gadget i uses seed
	// Seed+i. Default 1.
	Seed int64
	// Count is the number of generated gadgets; 0 runs a corpus-only
	// campaign. A negative Count is an error.
	Count int
	// Schemes to test; default Schemes() (all eight Table 2 configs).
	Schemes []Scheme
	// Models to test; default AttackModels() (futuristic and spectre).
	Models []AttackModel
	// Jobs is the worker count, as in EvalOptions. Default one per core.
	Jobs int
	// Context, if non-nil, cancels the campaign between cells.
	Context context.Context
	// Progress, if non-nil, is called (serialized) after each cell.
	Progress func(done, total int, j VerifyJob)
}

func (o VerifyOptions) withDefaults() VerifyOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Schemes) == 0 {
		o.Schemes = Schemes()
	}
	if len(o.Models) == 0 {
		o.Models = AttackModels()
	}
	return o
}

// VerifyJob is one cell of the campaign: one workload program checked by
// both oracles under one (scheme, model) pair.
type VerifyJob struct {
	// Kind is "corpus" or "gen".
	Kind string
	// Name identifies the program (corpus entry name or generated gadget
	// name).
	Name string
	// Index is the position in the corpus list or the generated-gadget
	// offset from the base seed.
	Index  int
	Scheme Scheme
	Model  AttackModel
}

func (j VerifyJob) String() string {
	return fmt.Sprintf("%s %s under %s/%s", j.Kind, j.Name, j.Scheme, j.Model)
}

// VerifyRow is one reconciled cell in the report.
type VerifyRow struct {
	Kind       string      `json:"kind"`
	Name       string      `json:"name"`
	Scheme     Scheme      `json:"scheme"`
	Model      AttackModel `json:"model"`
	Agreement  string      `json:"agreement"`
	FuzzLeaked bool        `json:"fuzz_leaked"`
	SymVerdict string      `json:"sym_verdict"`
	SymMethod  string      `json:"sym_method"`
	Detail     string      `json:"detail,omitempty"`
	// Expected is the recorded ground truth for the cell: "leak" or
	// "clean" (corpus metadata or the generator's ExpectLeak matrix), ""
	// when the cell is unclassified.
	Expected string `json:"expected,omitempty"`
	// Mismatch is true when a ground-truth expectation exists and either
	// oracle contradicts it.
	Mismatch bool `json:"mismatch,omitempty"`
}

// VerifyCellStats tallies one (scheme, model) column of the campaign.
type VerifyCellStats struct {
	Scheme        Scheme      `json:"scheme"`
	Model         AttackModel `json:"model"`
	Checks        int         `json:"checks"`
	AgreeLeak     int         `json:"agree_leak"`
	AgreeSecure   int         `json:"agree_secure"`
	SymConfirmed  int         `json:"sym_confirmed"`
	Unknown       int         `json:"unknown"`
	Enumerated    int         `json:"enumerated"`
	Disagreements int         `json:"disagreements"`
	Mismatches    int         `json:"mismatches"`
}

// VerifyWitness is a symbolic-only leak (the fuzzer's default secret pair
// missed it, the witness pair reproduces it) packaged as a corpus-format
// reproducer ready to check into testdata/fuzz/.
type VerifyWitness struct {
	Name   string      `json:"name"`
	Scheme Scheme      `json:"scheme"`
	Model  AttackModel `json:"model"`
	Corpus string      `json:"corpus"`
}

// VerifyReport is the outcome of a two-oracle campaign. Reports with the
// same (CorpusDir, Seed, Count, Schemes, Models) are byte-identical
// regardless of Jobs.
type VerifyReport struct {
	// Engine is the EngineVersion that produced the report, so archived
	// or cached reports are distinguishable across code changes.
	Engine    string            `json:"engine"`
	CorpusDir string            `json:"corpus_dir,omitempty"`
	Seed      int64             `json:"seed"`
	Count     int               `json:"count"`
	Programs  int               `json:"programs"`
	Schemes   []Scheme          `json:"schemes"`
	Models    []AttackModel     `json:"models"`
	Cells     []VerifyCellStats `json:"cells"`
	// Disagreements are the hard failures: soundness bugs (symbolic says
	// secure, fuzzer observed a divergence) and unconfirmable witnesses
	// (symbolic claims a leak its own pair cannot reproduce).
	Disagreements []VerifyRow `json:"disagreements,omitempty"`
	// Mismatches are cells where an oracle contradicts the recorded
	// ground truth (corpus metadata or the generator matrix).
	Mismatches []VerifyRow `json:"mismatches,omitempty"`
	// Unknowns are cells where the symbolic oracle abstained.
	Unknowns []VerifyRow `json:"unknowns,omitempty"`
	// Witnesses are reproducers for leaks only the symbolic oracle found.
	Witnesses []VerifyWitness `json:"witnesses,omitempty"`
}

// OK is the campaign's pass condition: no oracle disagreement and no
// ground-truth mismatch. Abstentions and symbolic-only findings are
// reported but do not fail the campaign.
func (r *VerifyReport) OK() bool {
	return len(r.Disagreements) == 0 && len(r.Mismatches) == 0
}

// JSON renders the report as indented JSON.
func (r *VerifyReport) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// Text renders the agreement table and every anomalous cell.
func (r *VerifyReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Two-oracle verification campaign (%d programs", r.Programs)
	if r.CorpusDir != "" {
		fmt.Fprintf(&sb, ", corpus %s", r.CorpusDir)
	}
	if r.Count > 0 {
		fmt.Fprintf(&sb, ", %d generated from seed %d", r.Count, r.Seed)
	}
	sb.WriteString(")\n")
	sb.WriteString("Each cell is checked by the differential fuzzer and the symbolic executor.\n\n")
	fmt.Fprintf(&sb, "%-14s %-11s %7s %10s %12s %10s %8s %6s %9s %9s\n",
		"SCHEME", "MODEL", "CHECKS", "AGREE-LEAK", "AGREE-SECURE", "SYM-FOUND", "UNKNOWN", "ENUM", "DISAGREE", "MISMATCH")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%-14s %-11s %7d %10d %12d %10d %8d %6d %9d %9d\n",
			c.Scheme, c.Model, c.Checks, c.AgreeLeak, c.AgreeSecure,
			c.SymConfirmed, c.Unknown, c.Enumerated, c.Disagreements, c.Mismatches)
	}
	section := func(title string, rows []VerifyRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&sb, "\n%s:\n", title)
		for _, row := range rows {
			fmt.Fprintf(&sb, "  %-44s %-12s/%-10s %-20s fuzz=%v sym=%s(%s) %s\n",
				row.Name, row.Scheme, row.Model, row.Agreement,
				row.FuzzLeaked, row.SymVerdict, row.SymMethod, row.Detail)
		}
	}
	section("Oracle disagreements", r.Disagreements)
	section("Ground-truth mismatches", r.Mismatches)
	section("Symbolic abstentions", r.Unknowns)
	if len(r.Witnesses) > 0 {
		sb.WriteString("\nSymbolic-only leaks (witness reproducers available):\n")
		for _, w := range r.Witnesses {
			fmt.Fprintf(&sb, "  %-44s %s/%s\n", w.Name, w.Scheme, w.Model)
		}
	}
	if r.OK() {
		sb.WriteString("\nVERDICT: PASS — both oracles agree on every cell\n")
	} else {
		fmt.Fprintf(&sb, "\nVERDICT: FAIL — %d disagreement(s), %d ground-truth mismatch(es)\n",
			len(r.Disagreements), len(r.Mismatches))
	}
	return sb.String()
}

// verifyExpectation looks up a corpus entry's recorded classification for
// a cell: "leak", "clean", or "" when unclassified.
func verifyExpectation(e fuzz.CorpusEntry, scheme Scheme, model AttackModel) string {
	for _, sm := range e.LeaksUnder() {
		if sm.Scheme == string(scheme) && sm.Model == string(model) {
			return "leak"
		}
	}
	for _, sm := range e.CleanUnder() {
		if sm.Scheme == string(scheme) && sm.Model == string(model) {
			return "clean"
		}
	}
	return ""
}

// RunVerify runs a two-oracle verification campaign on a worker pool:
// every workload program is checked by fuzz.CrossCheckProgram under every
// (scheme, model) cell, results are reconciled against each other and
// against the recorded ground truth, and confirmed symbolic-only leaks
// are packaged as corpus reproducers. Aggregation is strictly in
// enumeration order, so the report is independent of Jobs.
func RunVerify(opt VerifyOptions) (*VerifyReport, error) {
	opt = opt.withDefaults()
	if opt.Count < 0 {
		return nil, fmt.Errorf("spt: verify count %d is negative", opt.Count)
	}

	var entries []fuzz.CorpusEntry
	if opt.CorpusDir != "" {
		var err error
		entries, err = fuzz.LoadCorpus(opt.CorpusDir)
		if err != nil {
			return nil, err
		}
	}
	// Each gadget is generated once; the cells share it read-only, as they
	// share corpus programs.
	cases := make([]fuzz.Case, opt.Count)
	for i := range cases {
		cases[i] = fuzz.Generate(opt.Seed + int64(i))
	}
	progFor := func(j VerifyJob) *isa.Program {
		if j.Kind == "corpus" {
			return entries[j.Index].Prog
		}
		return cases[j.Index].Prog
	}

	var jobs []VerifyJob
	addGrid := func(kind, name string, index int) {
		for _, s := range opt.Schemes {
			for _, m := range opt.Models {
				jobs = append(jobs, VerifyJob{Kind: kind, Name: name, Index: index, Scheme: s, Model: m})
			}
		}
	}
	for i, e := range entries {
		addGrid("corpus", e.Name, i)
	}
	for i, c := range cases {
		addGrid("gen", c.Name, i)
	}

	run := func(j VerifyJob) (fuzz.CrossCheck, error) {
		return fuzz.CrossCheckProgram(progFor(j), string(j.Scheme), string(j.Model))
	}
	results, err := runPool(jobs, poolConfig[VerifyJob]{
		Workers:  opt.Jobs,
		Context:  opt.Context,
		Progress: opt.Progress,
	}, run)
	if err != nil {
		return nil, err
	}

	rep := &VerifyReport{
		Engine:    EngineVersion,
		CorpusDir: opt.CorpusDir, Seed: opt.Seed, Count: opt.Count,
		Programs: len(entries) + opt.Count,
		Schemes:  opt.Schemes, Models: opt.Models,
	}
	cellIdx := map[VerifyJob]int{}
	for _, s := range opt.Schemes {
		for _, m := range opt.Models {
			cellIdx[VerifyJob{Scheme: s, Model: m}] = len(rep.Cells)
			rep.Cells = append(rep.Cells, VerifyCellStats{Scheme: s, Model: m})
		}
	}

	// Aggregate strictly in enumeration order.
	for _, j := range jobs {
		cc := results[j]
		cell := &rep.Cells[cellIdx[VerifyJob{Scheme: j.Scheme, Model: j.Model}]]
		cell.Checks++

		row := VerifyRow{
			Kind: j.Kind, Name: j.Name, Scheme: j.Scheme, Model: j.Model,
			Agreement:  string(cc.Agreement),
			FuzzLeaked: cc.FuzzLeaked,
			SymVerdict: cc.Sym.Verdict.String(),
			SymMethod:  cc.Sym.Method,
			Detail:     cc.Detail,
		}
		if cc.Sym.Method == "enumeration" {
			cell.Enumerated++
		}

		switch cc.Agreement {
		case fuzz.AgreeLeak:
			cell.AgreeLeak++
		case fuzz.AgreeSecure:
			cell.AgreeSecure++
		case fuzz.SymLeakConfirmed:
			cell.SymConfirmed++
			e := fuzz.WitnessEntry(progFor(j), string(j.Scheme), string(j.Model), cc.Sym.Witness)
			rep.Witnesses = append(rep.Witnesses, VerifyWitness{
				Name: e.Name, Scheme: j.Scheme, Model: j.Model,
				Corpus: fuzz.FormatCorpusEntry(e),
			})
		case fuzz.SymUnknown:
			cell.Unknown++
			rep.Unknowns = append(rep.Unknowns, row)
		default: // SoundnessBug, WitnessUnconfirmed
			cell.Disagreements++
			rep.Disagreements = append(rep.Disagreements, row)
		}

		// Ground truth: corpus metadata for reproducers, the generator's
		// leak matrix for fresh gadgets.
		if j.Kind == "corpus" {
			row.Expected = verifyExpectation(entries[j.Index], j.Scheme, j.Model)
		} else {
			if fuzz.ExpectLeak(string(j.Scheme), string(j.Model), cases[j.Index]) {
				row.Expected = "leak"
			} else {
				row.Expected = "clean"
			}
		}
		if row.Expected != "" && cc.OK() {
			wantLeak := row.Expected == "leak"
			symSaysLeak := cc.Sym.Verdict == symx.VerdictLeak
			leakSeen := cc.FuzzLeaked || cc.Agreement == fuzz.SymLeakConfirmed
			if cc.Sym.Verdict != symx.VerdictUnknown && (symSaysLeak != wantLeak || leakSeen != wantLeak) {
				row.Mismatch = true
				cell.Mismatches++
				rep.Mismatches = append(rep.Mismatches, row)
			}
		}
	}
	return rep, nil
}
