package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// digestsJSON holds each workload's report digest at -seed 1, keyed by
// workload and then by API seed ("fixed" for the seedless Figure 7
// workloads). Regenerate it with -update-digests after a change that is
// meant to alter simulated results.
//
//go:embed digests.json
var digestsJSON []byte

const digestsPath = "bench/digests.json"

func storedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestsPath, err)
	}
	return d, nil
}

// jobs is the load generator's worker count: one per CPU, at most four.
func jobs() int { return min(runtime.NumCPU(), 4) }

// repResult is one untraced repetition, run in its own child process.
type repResult struct {
	outcome
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	AllocB uint64  `json:"alloc_bytes"`
	Err    string  `json:"error,omitempty"`
	usage  usage
}

// traceDoc is one traced re-drive, run in its own child process so that
// it starts from the same fresh process state as the untraced repetition
// it is compared with.
type traceDoc struct {
	Outcome outcome `json:"outcome"`
	WallS   float64 `json:"wall_s"`
	Err     string  `json:"error,omitempty"`
	// EpochNs is the Unix time of the child's span clock zero.
	EpochNs int64              `json:"epoch_ns"`
	Cells   []cellInfo         `json:"cells"`
	Spans   []span             `json:"spans"`
	Counts  map[string]float64 `json:"counts"`
}

// childRep is the child side of one untraced repetition: set up, time the
// public API call, then check the outputs.
func childRep(name string, seed, launchNs int64) (r repResult) {
	w, err := workloadByName(name)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	u, err := w.prepare(full, seed, jobs())
	if err != nil {
		r.Err = err.Error()
		return r
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	err = u.timed()
	r.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	r.AllocB = ms.TotalAlloc - alloc0
	r.SetupS = float64(start.UnixNano()-launchNs) / 1e9
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.outcome = u.check()
	return r
}

// childTrace is the child side of one traced re-drive.
func childTrace(name string, seed int64) (d traceDoc) {
	w, err := workloadByName(name)
	if err != nil {
		d.Err = err.Error()
		return d
	}
	tr := newTracer()
	start := time.Now()
	d.Outcome, err = w.traced(tr, full, seed, jobs())
	d.WallS = time.Since(start).Seconds()
	if err != nil {
		d.Err = err.Error()
	}
	d.EpochNs = tr.epoch.UnixNano()
	d.Cells, d.Spans, d.Counts = tr.cells, tr.spans(), tr.counts
	return d
}

// usage is a finished child's resource use.
type usage struct {
	cpuS, rssMB, procS float64
}

// childTimeout bounds one child; a healthy one takes a few seconds.
const childTimeout = 120 * time.Second

// runChild re-executes this binary with args plus its launch time, waits
// for it to exit, and decodes the JSON it prints into v.
func runChild(ctx context.Context, v any, args ...string) (usage, error) {
	var u usage
	exe, err := os.Executable()
	if err != nil {
		return u, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	var stdout bytes.Buffer
	launch := time.Now()
	cmd := exec.CommandContext(ctx, exe, append(args, "-launch", strconv.FormatInt(launch.UnixNano(), 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	u.procS = time.Since(launch).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			u.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		return u, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return u, fmt.Errorf("reading child %v: %w", args, err)
	}
	return u, nil
}

// runRep runs one untraced repetition of w in a child process.
func runRep(ctx context.Context, w *workload, seed int64) repResult {
	var r repResult
	u, err := runChild(ctx, &r, "-child", w.name, "-api-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		r.Err = err.Error()
	}
	r.usage = u
	return r
}

// judge turns a repetition's errors and digests into failed ops. A
// repetition that errored counts as one failed op; a wrong digest or a
// failed invariant fails every op of the repetition. seen maps each input
// seed to the first report digest it produced, so repeated inputs must
// reproduce it exactly.
func judge(w *workload, runSeed, seed int64, r *repResult, seen map[int64]string, stored map[string]map[string]string) {
	if r.Err != "" {
		r.Ops, r.Failed, r.Problem = 1, 1, r.Err
		return
	}
	if prev, ok := seen[seed]; ok && prev != r.Report {
		r.fail("report digest %s differs from an earlier repetition with the same inputs (%s)", r.Report, prev)
	}
	seen[seed] = r.Report
	if w.seeded && runSeed != 1 {
		return
	}
	key := digestKey(w, seed)
	want, ok := stored[w.name][key]
	switch {
	case !ok:
		r.fail("%s has no stored digest for %s (run -update-digests)", digestsPath, key)
	case want != r.Report:
		r.fail("report digest %s, stored %s", r.Report, want)
	}
}

func digestKey(w *workload, seed int64) string {
	if !w.seeded {
		return "fixed"
	}
	return strconv.FormatInt(seed, 10)
}

// repSeed is the input seed of repetition rep; seedless workloads get 0.
func repSeed(w *workload, runSeed int64, rep int) int64 {
	if !w.seeded {
		return 0
	}
	return apiSeed(runSeed, rep)
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// count adds an outcome to the result's tallies, reporting its problem.
func (res *result) count(o outcome, what string) {
	res.Attempted += o.Ops
	res.Failed += o.Failed
	if o.Problem != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", what, o.Problem)
	}
}

func hostLine(stdout io.Writer, what string) {
	fmt.Fprintf(stdout, "bench: %s, jobs %d, GOMAXPROCS %d, nproc %d, %s\n",
		what, jobs(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
}

// runValue reduces one end-to-end metric's samples, grouped by input seed,
// to the run's value. Noise on a shared host only ever adds time, so each
// input seed contributes its best repetition (fastest, or highest rate),
// and the run's value is the mean over its seeds, which averages over the
// inputs. Set-up time is the median over every repetition.
func runValue(m metricSpec, bySeed map[int64][]float64) float64 {
	seeds := make([]int64, 0, len(bySeed))
	for seed := range bySeed {
		seeds = append(seeds, seed)
	}
	slices.Sort(seeds)
	var all, best []float64
	for _, seed := range seeds {
		xs := bySeed[seed]
		all = append(all, xs...)
		if m.Better == "higher" {
			best = append(best, slices.Max(xs))
		} else {
			best = append(best, slices.Min(xs))
		}
	}
	if m.Name == "setup_s" {
		return median(all)
	}
	return mean(best)
}

// untracedRun repeats w, one child process at a time, until the next
// repetition would end after seconds, and reduces each end-to-end metric's
// samples with runValue.
func untracedRun(ctx context.Context, w *workload, runSeed int64, seconds float64, stdout io.Writer) (result, error) {
	stored, err := storedDigests()
	if err != nil {
		return result{}, err
	}
	seen := map[int64]string{}
	res := result{Metrics: map[string]metricValue{}}
	samples := map[string]map[int64][]float64{}
	for _, m := range endToEnd {
		samples[m.Name] = map[int64][]float64{}
	}
	var rss, procS []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		seed := repSeed(w, runSeed, rep)
		r := runRep(ctx, w, seed)
		if ctx.Err() != nil {
			return result{}, ctx.Err()
		}
		judge(w, runSeed, seed, &r, seen, stored)
		res.count(r.outcome, fmt.Sprintf("%s repetition %d (seed %d)", w.name, rep, seed))
		procS = append(procS, r.usage.procS)
		if r.Err == "" {
			for name, v := range map[string]float64{
				"wall_s":    r.WallS,
				"ops_per_s": float64(r.Ops) / r.WallS,
				"cpu_s":     r.usage.cpuS,
				"alloc_mb":  float64(r.AllocB) / 1e6,
				"setup_s":   r.SetupS,
			} {
				samples[name][seed] = append(samples[name][seed], v)
			}
			rss = append(rss, r.usage.rssMB)
		}
		if time.Since(start).Seconds()+mean(procS) > seconds {
			break
		}
	}
	hostLine(stdout, fmt.Sprintf("workload %s, seed %d, %d repetitions", w.name, runSeed, len(procS)))
	fmt.Fprintf(stdout, "%-10s %-6s %12s %12s %12s %12s %3s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		var xs []float64
		for _, v := range samples[m.Name] {
			xs = append(xs, v...)
		}
		v := 0.0 // no successful repetition: the run is incorrect anyway
		if len(xs) > 0 {
			v = runValue(m, samples[m.Name])
			q1, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "%-10s %-6s %12.6g %12.6g %12.6g %12.6g %3d\n", m.Name, m.Unit, v, median(xs), q1, q3, len(xs))
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if len(rss) > 0 {
		s := sorted(rss)
		fmt.Fprintf(stdout, "peak RSS (not a metric): %.1f to %.1f MB\n", s[0], s[len(s)-1])
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0 && len(rss) > 0
	return res, nil
}

// tracedRun runs, per workload, two pairs of one untraced repetition and
// one traced re-drive of the same inputs, each in its own child process,
// then the functional-layer probes, in passes until the next pass would end
// after seconds. The tracing overhead compares the fastest repetition on
// each side. It prints the per-layer metrics and writes the spans of every
// pass to spansPath.
func tracedRun(ctx context.Context, runSeed int64, seconds float64, spansPath string, stdout io.Writer) (result, error) {
	stored, err := storedDigests()
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	res := result{Metrics: map[string]metricValue{}}
	untracedWall, tracedWall := map[string][]float64{}, map[string][]float64{}
	seen := map[string]map[int64]string{}
	for _, w := range workloadList {
		seen[w.name] = map[int64]string{}
	}
	start := time.Now()
	for {
		passStart := time.Now()
		for i := range workloadList {
			w := &workloadList[i]
			seed := repSeed(w, runSeed, 0)
			what := fmt.Sprintf("%s (seed %d)", w.name, seed)
			for pair := 0; pair < 2; pair++ {
				r := runRep(ctx, w, seed)
				var d traceDoc
				_, err := runChild(ctx, &d, "-child", w.name, "-api-seed", strconv.FormatInt(seed, 10), "-trace", "1")
				if ctx.Err() != nil {
					return result{}, ctx.Err()
				}
				judge(w, runSeed, seed, &r, seen[w.name], stored)
				res.count(r.outcome, "untraced "+what)
				switch {
				case err != nil:
					d.Outcome = outcome{Ops: 1, Failed: 1, Problem: err.Error()}
				case d.Err != "":
					d.Outcome = outcome{Ops: 1, Failed: 1, Problem: d.Err}
				case r.Err == "" && d.Outcome.Cells != r.Cells:
					d.Outcome.fail("traced cells digest %s, untraced %s", d.Outcome.Cells, r.Cells)
				}
				res.count(d.Outcome, "traced "+what)
				if r.Err == "" && err == nil && d.Err == "" {
					untracedWall[w.name] = append(untracedWall[w.name], r.WallS)
					tracedWall[w.name] = append(tracedWall[w.name], d.WallS)
				}
				tr.absorb(d)
			}
		}
		if err := probeTraced(tr, full); err != nil {
			res.count(outcome{Ops: 1, Failed: 1, Problem: err.Error()}, "probes")
		}
		if el := time.Since(start).Seconds(); el+time.Since(passStart).Seconds() > seconds {
			break
		}
	}

	values, problems := layerMetrics(tr)
	for _, w := range workloadList {
		u, t := untracedWall[w.name], tracedWall[w.name]
		v := math.NaN() // no successful pair: marks the run incorrect below
		if len(u) > 0 {
			v = 100 * (slices.Min(t)/slices.Min(u) - 1)
		}
		values["trace.overhead_pct."+w.name] = v
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "bench: %s\n", p)
	}
	hostLine(stdout, fmt.Sprintf("traced run, seed %d", runSeed))
	valid := len(problems) == 0
	for _, m := range perLayer() {
		v := values[m.Name]
		fmt.Fprintf(stdout, "%-42s %-12s %12.6g\n", m.Name, m.Unit, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			valid = false
			v = 0 // JSON has no NaN; the run is marked incorrect instead
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %s\n", spansPath)
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0 && valid
	return res, nil
}

// updateDigests recomputes the stored seed-1 report digests.
func updateDigests(ctx context.Context) error {
	d := map[string]map[string]string{}
	for i := range workloadList {
		w := &workloadList[i]
		d[w.name] = map[string]string{}
		n := 1
		if w.seeded {
			n = seedCycle
		}
		for rep := 0; rep < n; rep++ {
			seed := repSeed(w, 1, rep)
			r := runRep(ctx, w, seed)
			if r.Err != "" || r.Problem != "" {
				return fmt.Errorf("%s seed %d: %s%s", w.name, seed, r.Err, r.Problem)
			}
			d[w.name][digestKey(w, seed)] = r.Report
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(b, '\n'), 0o644)
}
