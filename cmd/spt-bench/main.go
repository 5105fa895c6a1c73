// Command spt-bench regenerates the paper's evaluation artifacts:
//
//	spt-bench -what machine   # Table 1 (simulated machine)
//	spt-bench -what configs   # Table 2 (design variants)
//	spt-bench -what fig7      # Figure 7, both attack models + headline numbers
//	spt-bench -what fig8      # Figure 8, untaint event breakdown
//	spt-bench -what fig9      # Figure 9, untaints-per-cycle distribution
//	spt-bench -what width     # §9.4 broadcast width sweep
//	spt-bench -what stats     # Fig. 10-style "where did the slowdown go" breakdown
//	spt-bench -what pentest   # §9.1 penetration testing
//	spt-bench -what all       # everything
//
// -budget scales the per-run retired-instruction count (the SimPoint
// stand-in); -workloads restricts the suite; -jobs sets how many
// simulations run concurrently (0 = one per core, 1 = sequential — the
// figures are bit-identical either way); -window-jobs additionally overlaps
// each sampled run's measured windows (also bit-identical); -progress
// reports grid completion on stderr. -cpuprofile/-memprofile write pprof
// profiles of the whole invocation. The repository's benchmark is
// bench/run.sh (bench/README.md), not this command.
//
// -skip fast-forwards every run past a functional prefix (executed once per
// workload and shared across the grid), and -sample replaces each detailed
// run with a SMARTS-style sampled estimate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"spt"
	"spt/internal/attack"
	"spt/internal/pipeline"
	"spt/internal/taint"
)

// whats are the values -what accepts: one artifact each, in the order
// "all" prints them, then "all".
var whats = []string{"machine", "configs", "fig7", "fig8", "fig9", "width", "stats", "pentest", "all"}

// checkWhat rejects a -what value that names no artifact, which would
// otherwise print nothing and exit 0.
func checkWhat(what string) error {
	if slices.Contains(whats, what) {
		return nil
	}
	return fmt.Errorf("unknown -what %q (want one of %s)", what, strings.Join(whats, "|"))
}

func main() {
	var (
		what       = flag.String("what", "all", strings.Join(whats, "|"))
		budget     = flag.Uint64("budget", 120_000, "retired instructions per run")
		workloads  = flag.String("workloads", "", "comma-separated subset (default: all)")
		jobs       = flag.Int("jobs", 0, "concurrent simulations (0 = one per core, 1 = sequential)")
		windowJobs = flag.Int("window-jobs", 0, "concurrent measured windows per sampled run (0/1 = serial)")
		skip       = flag.Uint64("skip", 0, "fast-forward this many instructions functionally before each detailed run")
		sample     = flag.String("sample", "", "SMARTS sampling spec: \"intervals\" or \"intervals:warmup:detail\"")
		progress   = flag.Bool("progress", false, "report per-simulation grid progress on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkWhat(*what); err != nil {
		fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	sampleSpec, err := spt.ParseSampleSpec(*sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spt-bench: %v\n", err)
		os.Exit(1)
	}
	// SIGINT/SIGTERM cancel the evaluation context: the worker pool stops
	// picking up grid cells after the in-flight simulations finish, so a
	// long campaign exits cleanly instead of needing a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := spt.EvalOptions{Budget: *budget, Jobs: *jobs, WindowJobs: *windowJobs, Skip: *skip, Sample: sampleSpec, Context: ctx}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	if *progress {
		opt.Progress = func(done, total int, j spt.Job) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d] %s\033[K", done, total, j)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	run := func(name string, f func() error) {
		if *what != "all" && *what != name {
			return
		}
		if err := f(); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "spt-bench: %s: interrupted (partial grid discarded)\n", name)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "spt-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("machine", func() error {
		fmt.Println(spt.MachineTable())
		return nil
	})
	run("configs", func() error {
		fmt.Println(spt.SchemeTable())
		return nil
	})
	run("fig7", func() error {
		for _, model := range spt.AttackModels() {
			fig, err := spt.RunFigure7(model, opt)
			if err != nil {
				return err
			}
			fmt.Println(fig.Text())
		}
		return nil
	})
	run("fig8", func() error {
		rows, err := spt.RunFigure8(opt)
		if err != nil {
			return err
		}
		fmt.Println(spt.Figure8Text(rows))
		return nil
	})
	run("fig9", func() error {
		rows, err := spt.RunFigure9(opt)
		if err != nil {
			return err
		}
		fmt.Println(spt.Figure9Text(rows))
		return nil
	})
	run("width", func() error {
		rows, err := spt.RunWidthSweep(nil, opt)
		if err != nil {
			return err
		}
		fmt.Println(spt.WidthSweepText(rows))
		return nil
	})
	run("stats", func() error {
		bd, err := spt.RunStatsBreakdown(spt.Futuristic, opt)
		if err != nil {
			return err
		}
		fmt.Println(bd.Text())
		return nil
	})
	run("pentest", runPentest)
}

func runPentest() error {
	fmt.Println("Penetration testing (paper §9.1)")
	type cfg struct {
		name string
		mk   func() pipeline.Policy
	}
	cfgs := []cfg{
		{"unsafe", func() pipeline.Policy { return nil }},
		{"secure", func() pipeline.Policy { return taint.NewSPT(taint.SPTConfig{Method: taint.UntaintNone}) }},
		{"stt", func() pipeline.Policy { return taint.NewSTT() }},
		{"spt", func() pipeline.Policy { return taint.NewSPT(taint.DefaultSPTConfig()) }},
	}
	for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		for _, c := range cfgs {
			res, err := attack.Run(attack.SpectreV1Program(42), model, c.mk())
			if err != nil {
				return err
			}
			verdict := "BLOCKED"
			if res.Leaked {
				verdict = fmt.Sprintf("LEAKED value %d", res.Value)
			}
			fmt.Printf("  spectre-v1      %-10s %-8s -> %s\n", model, c.name, verdict)
		}
	}
	for _, c := range cfgs {
		res, err := attack.Run(attack.NonSpecSecretProgram(0x3C), pipeline.Futuristic, c.mk())
		if err != nil {
			return err
		}
		verdict := "BLOCKED"
		if res.Leaked {
			verdict = fmt.Sprintf("LEAKED value %#x", res.Value)
		}
		fmt.Printf("  nonspec-secret  %-10s %-8s -> %s\n", pipeline.Futuristic, c.name, verdict)
	}
	fmt.Println("  expected: unsafe leaks both; stt leaks only nonspec-secret; secure/spt block everything")
	return nil
}
