// Golden-output tests for the four text renderers. The fixtures under
// testdata/ pin both the numeric results (the simulator is deterministic)
// and the exact formatting, so map-ordering or layout regressions are
// caught byte-for-byte. The grids run with Jobs: 8 on purpose: the
// determinism tests prove the worker count cannot change the bytes, so
// these fixtures double as an end-to-end check of the parallel path.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGolden -update
package spt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spt"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/symx"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func goldenOpt() spt.EvalOptions {
	return spt.EvalOptions{
		Budget:    6_000,
		Workloads: []string{"mcf", "xz", "chacha20"},
		Jobs:      8,
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test -run TestGolden -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s: first difference at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
			break
		}
	}
	t.Errorf("%s: output diverged from golden fixture (regenerate with `go test -run TestGolden -update` if intentional)", name)
}

func TestGoldenFigure7(t *testing.T) {
	fig, err := spt.RunFigure7(spt.Futuristic, goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7_futuristic.golden", fig.Text())
}

// TestGoldenFigure7Sampled pins a sampled Figure-7 grid byte-for-byte: the
// SMARTS-style estimator is deterministic at any worker count, so its text
// rendering is as golden-able as the full detailed run.
func TestGoldenFigure7Sampled(t *testing.T) {
	opt := goldenOpt()
	opt.Sample = spt.SampleSpec{Intervals: 3, Warmup: 300, Detail: 500}
	fig, err := spt.RunFigure7(spt.Futuristic, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7_sampled.golden", fig.Text())
}

func TestGoldenFigure8(t *testing.T) {
	rows, err := spt.RunFigure8(goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure8.golden", spt.Figure8Text(rows))
}

func TestGoldenFigure9(t *testing.T) {
	rows, err := spt.RunFigure9(goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure9.golden", spt.Figure9Text(rows))
}

func TestGoldenFuzzReport(t *testing.T) {
	rep, err := spt.RunFuzz(spt.FuzzOptions{Seed: 1, Count: 12, Jobs: 8, Minimize: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fuzz_report.golden", rep.Text())
}

// TestGoldenCampaignReport pins the campaign text renderer: unit mix,
// bucket coverage, per-cell verdicts, and the triaged distinct-leak table
// with minimized reproducers. Campaign reports are deterministic at any
// worker count and under any sharding, so the fixture doubles as a check
// of the whole orchestration path (fresh units, corpus mutants, coverage
// mutants, triage, skeleton merge).
func TestGoldenCampaignReport(t *testing.T) {
	rep, err := spt.RunCampaign(spt.CampaignOptions{
		Seed:        1,
		Generations: 2,
		PerGen:      8,
		Schemes:     []spt.Scheme{"unsafe", "spt", "stt"},
		Models:      []spt.AttackModel{spt.Futuristic},
		CorpusDir:   filepath.Join("testdata", "fuzz"),
		Minimize:    0,
		Jobs:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_report.golden", rep.Text())
}

func TestGoldenStatsBreakdown(t *testing.T) {
	bd, err := spt.RunStatsBreakdown(spt.Futuristic, goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_breakdown.golden", bd.Text())
}

// TestGoldenStatsDump pins a full per-run counter dump byte-for-byte: the
// registry contains only simulation-derived values, so the entire JSON is
// safe to golden (host throughput lives outside the registry).
func TestGoldenStatsDump(t *testing.T) {
	res, err := spt.Run("mcf", spt.Options{Scheme: spt.SPTFull, MaxInstructions: 6_000})
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.Stats.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats_dump_mcf_spt.golden", js)
}

func TestGoldenWidthSweep(t *testing.T) {
	rows, err := spt.RunWidthSweep([]int{1, 3, -1}, goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "width_sweep.golden", spt.WidthSweepText(rows))
}

// TestGoldenSymxResults pins the symbolic oracle's answer on every cell of
// the corpus plus generated gadgets 1–64 under every scheme and model: the
// verdict, method and event count, plus the witness pair and divergence of
// a leak or the reason of an abstention. The two-oracle tests only check
// that the oracles agree; this fixture holds the exact answer, including
// the enumeration fallback's.
func TestGoldenSymxResults(t *testing.T) {
	entries, err := fuzz.LoadCorpus(filepath.Join("testdata", "fuzz"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var progs []*isa.Program
	for _, e := range entries {
		names, progs = append(names, e.Name), append(progs, e.Prog)
	}
	for seed := int64(1); seed <= 64; seed++ {
		c := fuzz.Generate(seed)
		names, progs = append(names, c.Name), append(progs, c.Prog)
	}
	var sb strings.Builder
	for i, p := range progs {
		for _, scheme := range fuzz.SchemeNames() {
			for _, model := range fuzz.ModelNames() {
				fmt.Fprintf(&sb, "%s %s/%s ", names[i], scheme, model)
				res, err := symx.Verify(p, scheme, model, fuzz.SymxConfig())
				switch {
				case err != nil:
					fmt.Fprintf(&sb, "error: %v\n", err)
				case res.Verdict == symx.VerdictLeak:
					fmt.Fprintf(&sb, "%s %s events=%d witness=%#x/%#x %s\n", res.Verdict, res.Method, res.Events,
						res.Witness.SecretA, res.Witness.SecretB, res.Witness.Divergence)
				case res.Verdict == symx.VerdictUnknown:
					fmt.Fprintf(&sb, "%s %s events=%d reason: %s\n", res.Verdict, res.Method, res.Events, res.Reason)
				default:
					fmt.Fprintf(&sb, "%s %s events=%d\n", res.Verdict, res.Method, res.Events)
				}
			}
		}
	}
	checkGolden(t, "symx_results.golden", sb.String())
}
