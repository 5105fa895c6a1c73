// Command spt-verify runs the two-oracle leakage verification campaign:
// every program in the workload — checked-in .urisc reproducers plus
// freshly generated gadgets — is judged by both the differential fuzz
// oracle (two concrete secrets, diffed observation traces) and the
// relational symbolic executor (all secrets at once), and the verdicts
// are reconciled per (scheme, threat-model) cell.
//
//	spt-verify -corpus testdata/fuzz -json          # cross-check the corpus
//	spt-verify -count 256                           # 256 fresh gadgets
//	spt-verify -schemes spt,unsafe -models spectre  # a slice of the grid
//	spt-verify -extract out/                        # save symbolic-only witnesses
//
// The report is deterministic in (corpus, seed, count, schemes, models):
// -jobs changes only the wall-clock time, never a byte of output. The
// exit status is the soundness verdict — 0 when the oracles agree on
// every cell and match the recorded ground truth, 1 on any soundness
// disagreement (symbolic-secure with a concrete divergence, or a
// symbolic witness the pipeline cannot reproduce) or ground-truth
// mismatch. A usage error (nothing to verify, a negative -count, an
// unknown scheme or model) or any other failure exits 2, an interrupt
// 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"spt"
	"spt/internal/fuzz"
)

func main() {
	var (
		corpus  = flag.String("corpus", "", "load .urisc reproducers from this directory into the workload")
		seed    = flag.Int64("seed", 1, "base RNG seed; generated gadget i uses seed+i")
		count   = flag.Int("count", 0, "number of freshly generated gadgets to verify")
		jobs    = flag.Int("jobs", 0, "concurrent cells (0 = one per core)")
		schemes = flag.String("schemes", "", "comma-separated schemes (default: all eight Table 2 configs)")
		models  = flag.String("models", "", "comma-separated threat models (default: futuristic,spectre)")
		jsonOut = flag.Bool("json", false, "emit the report as JSON instead of text")
		extract = flag.String("extract", "", "write symbolic-only leak witnesses as .urisc reproducers into this directory")
		quiet   = flag.Bool("q", false, "suppress the progress meter")
	)
	flag.Parse()

	if err := checkArgs(*corpus, *count); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the campaign context: the cell pool stops
	// picking up work once the in-flight oracle runs finish, so a long
	// cross-check exits cleanly mid-grid instead of needing a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := spt.VerifyOptions{
		CorpusDir: *corpus,
		Seed:      *seed,
		Count:     *count,
		Jobs:      *jobs,
		Context:   ctx,
	}
	for _, name := range splitList(*schemes) {
		if _, err := fuzz.PolicyByName(name); err != nil {
			fatal(err)
		}
		opt.Schemes = append(opt.Schemes, spt.Scheme(name))
	}
	for _, name := range splitList(*models) {
		if _, err := fuzz.ModelByName(name); err != nil {
			fatal(err)
		}
		opt.Models = append(opt.Models, spt.AttackModel(name))
	}
	if !*quiet {
		opt.Progress = func(done, total int, j spt.VerifyJob) {
			fmt.Fprintf(os.Stderr, "\r%d/%d oracle cells\033[K", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	rep, err := spt.RunVerify(opt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "spt-verify: interrupted (partial campaign discarded)")
			os.Exit(130)
		}
		fatal(err)
	}

	if *extract != "" {
		for _, w := range rep.Witnesses {
			e, perr := fuzz.ParseCorpusEntry(w.Name, w.Corpus)
			if perr != nil {
				fatal(perr)
			}
			path, werr := fuzz.WriteCorpusEntry(*extract, e)
			if werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%s/%s witness)\n", path, w.Scheme, w.Model)
		}
	}

	if *jsonOut {
		js, jerr := rep.JSON()
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Print(js)
	} else {
		fmt.Print(rep.Text())
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// checkArgs rejects a campaign with nothing to verify or a negative
// gadget count before anything runs.
func checkArgs(corpus string, count int) error {
	if count < 0 {
		return fmt.Errorf("-count must be >= 0, got %d", count)
	}
	if corpus == "" && count == 0 {
		return fmt.Errorf("nothing to verify: pass -corpus and/or -count")
	}
	return nil
}

// splitList parses a comma-separated flag value, ignoring empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// fatal reports a usage error or a failure to run the campaign; exit 1
// is reserved for the campaign's own soundness verdict.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spt-verify:", err)
	os.Exit(2)
}
