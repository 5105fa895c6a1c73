// Command bench is the repository's benchmark. An untraced run times one
// workload of the paper's artifacts end to end through the public API (the
// Figure 7 grid in full-detail, checkpointed and sampled modes, a fuzzing
// campaign, a two-oracle verify campaign), each repetition in its own child
// process, and checks the outputs. A traced run re-drives the same work
// through the internal packages with a span around every layer call and
// reports host cost layer by layer. See README.md for the workloads,
// metrics and how to compare two sets of runs.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fig7-detail --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: fig7-detail, fig7-ckpt, fig7-sampled, campaign or verify")
	seed := fs.Int64("seed", 1, "input seed for the campaign and verify programs (the Figure 7 inputs are fixed kernels); must be >= 0")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass over all workloads and prints the per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans.json", "where a traced run writes its spans")
	recordPath := fs.String("record", "", "append the run's result as one JSON line to this file (input for -compare)")
	compareMode := fs.Bool("compare", false, "compare two -record files: -compare A.jsonl B.jsonl")
	update := fs.Bool("update-digests", false, "recompute the stored seed-1 report digests into "+digestsPath)
	child := fs.String("child", "", "internal: run one untraced repetition of this workload and print it as JSON")
	childSeed := fs.Int64("api-seed", 0, "internal: the repetition's input seed")
	launch := fs.Int64("launch", 0, "internal: when the parent launched this child (Unix ns)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *child != "" {
		var v any
		if *trace == 1 {
			v = childTrace(*child, *childSeed)
		} else {
			v = childRep(*child, *childSeed, *launch)
		}
		if err := json.NewEncoder(stdout).Encode(v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		bf, err := readBenchmarkFile("BENCHMARK.json")
		if err == nil {
			err = compare(fs.Arg(0), fs.Arg(1), bf, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	// The workloads read the fuzz corpus relative to the repository root.
	if _, err := os.Stat(full.CorpusDir); err != nil {
		fmt.Fprintf(stderr, "bench: run from the repository root (%v)\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *update {
		if err := updateDigests(ctx); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seed must be >= 0, -seconds > 0 and -trace 0 or 1")
		return 2
	}

	var res result
	w, err := workloadByName(*workloadName)
	switch {
	case err != nil:
	case *trace == 1:
		// A traced run re-drives every workload, so that each per-layer
		// metric is measured on the work it describes.
		res, err = tracedRun(ctx, *seed, *seconds, *spans, stdout)
	default:
		res, err = untracedRun(ctx, w, *seed, *seconds, stdout)
	}
	if err == nil && *recordPath != "" {
		err = appendRecord(*recordPath, record{Workload: *workloadName, Seed: *seed, Trace: *trace == 1, result: res})
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
