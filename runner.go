package spt

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Job identifies one cell of an evaluation grid: one simulation of one
// workload under one (scheme, attack model, broadcast width) point at a
// fixed instruction budget. The figure harnesses (RunFigure7, RunFigure8,
// RunFigure9, RunWidthSweep) enumerate their full grid as []Job up front,
// execute it on a worker pool, and then aggregate sequentially in grid
// order — which is what makes their output independent of EvalOptions.Jobs.
type Job struct {
	Workload string
	Scheme   Scheme
	Model    AttackModel
	// Width is passed through as Options.UntaintBroadcastWidth: 0 means the
	// default (3), negative means unbounded.
	Width  int
	Budget uint64
	// Skip fast-forwards the cell's first Skip instructions functionally
	// (Options.SkipInstructions); cells sharing a (workload, skip) prefix
	// share one checkpoint when the grid carries a store.
	Skip uint64
	// Sample enables sampled simulation for the cell (Options.Sample);
	// cells of one workload take their windows from one shared walk when
	// the grid carries a store.
	Sample SampleSpec
}

// String names the job for errors and progress reporting.
func (j Job) String() string {
	width := fmt.Sprintf("w=%d", j.Width)
	if j.Width < 0 {
		width = "w=unbounded"
	}
	s := fmt.Sprintf("%s/%s/%s %s budget=%d", j.Workload, j.Scheme, j.Model, width, j.Budget)
	if j.Skip > 0 {
		s += fmt.Sprintf(" skip=%d", j.Skip)
	}
	if j.Sample.enabled() {
		s += fmt.Sprintf(" sample=%s", j.Sample)
	}
	return s
}

// options translates the grid cell into simulation options.
func (j Job) options() Options {
	return Options{
		Scheme:                j.Scheme,
		Model:                 j.Model,
		UntaintBroadcastWidth: j.Width,
		MaxInstructions:       j.Budget,
		SkipInstructions:      j.Skip,
		Sample:                j.Sample,
	}
}

// RunJobs executes an evaluation grid on a worker pool and returns the
// results keyed by Job. Execution honors opt.Jobs (worker count), opt.Context
// (cancellation: no new cell starts, and every in-flight cell stops at its
// next context check, as Options.Context describes), and opt.Progress;
// opt.Budget, opt.Width, and opt.Workloads are ignored here — they only
// matter when a figure harness enumerates its grid. Duplicate jobs are
// simulated once. With more than one worker, the first cell of each shared
// prefix goes out ahead of the cells that wait on it (walkAheadOrder), so
// different workers walk different workloads' prefixes at once; results do
// not depend on that order. On error the first failure in grid order is
// returned and the partial results are discarded.
func RunJobs(jobs []Job, opt EvalOptions) (map[Job]*Result, error) {
	return runGrid(jobs, opt, newJobRunner(jobs, opt).run)
}

// jobRunner runs the cells of one grid. When any cell fast-forwards or
// samples, the cells share a checkpoint store (opt.Checkpoints, or the
// runner's own in-memory one), so each distinct workload prefix executes
// once for the whole grid instead of once per cell: a Skip prefix once per
// (workload, skip), a sampled walk once per workload. The runner's own
// store forgets a workload once the last of its cells has returned,
// failed or not, so a grid holds the checkpoints and kept walkers of only
// the workloads still running, which runGrid's walk-ahead order
// (walkAheadOrder) keeps to at most twice the worker count. A store the
// caller supplies is never pruned. The harness context and per-cell window
// concurrency (opt.WindowJobs) flow into every cell's Options, so sampled
// cells can overlap their measured windows and a cancelled harness also
// aborts the simulation it is inside of.
type jobRunner struct {
	opt   EvalOptions
	store *CheckpointStore

	mu   sync.Mutex
	left map[string]int // own store only: cells per workload not yet returned
}

func newJobRunner(jobs []Job, opt EvalOptions) *jobRunner {
	r := &jobRunner{opt: opt, store: opt.Checkpoints}
	if r.store != nil || !slices.ContainsFunc(jobs, func(j Job) bool { return j.Skip > 0 || j.Sample.enabled() }) {
		return r
	}
	r.store = NewCheckpointStore("")
	r.left = make(map[string]int)
	// Count distinct jobs: the pool simulates a duplicate once.
	seen := make(map[Job]bool, len(jobs))
	for _, j := range jobs {
		if !seen[j] {
			seen[j] = true
			r.left[j.Workload]++
		}
	}
	return r
}

// run simulates one grid cell.
func (r *jobRunner) run(j Job) (*Result, error) {
	if r.left != nil {
		defer r.done(j.Workload)
	}
	o := j.options()
	o.Checkpoints = r.store
	o.Jobs = r.opt.WindowJobs
	o.Context = r.opt.Context
	return Run(j.Workload, o)
}

// done counts one returned cell of workload and releases the workload from
// the runner's own store after its last cell.
func (r *jobRunner) done(workload string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.left[workload]--
	if r.left[workload] == 0 {
		r.store.inner.Release(workload)
	}
}

// runGrid adapts the simulation grid to the generic worker pool, fed in
// walkAheadOrder.
func runGrid(jobs []Job, opt EvalOptions, run func(Job) (*Result, error)) (map[Job]*Result, error) {
	return runPool(jobs, poolConfig[Job]{
		Workers:  opt.Jobs,
		Context:  opt.Context,
		Progress: opt.Progress,
		Order:    walkAheadOrder,
	}, run)
}

// walkAheadOrder returns the order, as positions in jobs, in which a pool
// of workers takes a grid's deduplicated cells. The cells served by one
// store entry form a group: Skip cells by (workload, skip), sampled cells
// by workload, and any other cell is a group of its own. A group's first
// cell walks the prefix while the store makes the group's other cells
// wait, so the first cell goes out workers−1 groups ahead of the others:
// the first cells of groups 0…W−1, then the rest of group 0, then the
// first cell of group W, then the rest of group 1, and so on. Different
// workers then walk different workloads at once, and a group's waiting
// cells go out only after its walk has started. A store the runner makes
// itself then holds at most 2W workloads: the W groups fed ahead, plus at
// most W groups with cells still in flight. At one worker, and for a grid
// with neither Skip nor Sample, the order is the grid order.
func walkAheadOrder(jobs []Job, workers int) []int {
	feed := make([]int, 0, len(jobs))
	if workers <= 1 {
		for k := range jobs {
			feed = append(feed, k)
		}
		return feed
	}
	type prefix struct {
		workload string
		skip     uint64
	}
	var groups [][]int
	index := make(map[prefix]int)
	for k, j := range jobs {
		if j.Skip == 0 && !j.Sample.enabled() {
			groups = append(groups, []int{k})
			continue
		}
		key := prefix{j.Workload, j.Skip}
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], k)
	}
	led := 0 // groups whose first cell is in feed
	for g, cells := range groups {
		for ; led < len(groups) && led < g+workers; led++ {
			feed = append(feed, groups[led][0])
		}
		feed = append(feed, cells[1:]...)
	}
	return feed
}

// poolConfig configures runPool. The zero value runs on one worker per
// core, in job order, with no cancellation or progress reporting.
type poolConfig[J comparable] struct {
	// Workers is the concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Context cancels the pool between jobs (a running job is not
	// interrupted).
	Context context.Context
	// Progress, if non-nil, is called (serialized) after each completion.
	Progress func(done, total int, j J)
	// Order, if non-nil, returns the order in which the workers take the
	// deduplicated jobs, as a permutation of their positions, given the
	// pool's worker count. At one worker it must be the job order: a
	// sequential pool stops at the first failure it runs. Nil feeds the
	// jobs in job order. Results and errors stay indexed by job position.
	Order func(jobs []J, workers int) []int
}

// safeRun converts a panicking job into a structured error naming the
// job, so one crashed cell fails the pool cleanly instead of killing the
// process from a worker goroutine.
func safeRun[J comparable, R any](j J, run func(J) (R, error)) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spt: job %v panicked: %v", j, r)
		}
	}()
	return run(j)
}

// runPool is the shared evaluation engine behind RunJobs and RunFuzz: it
// executes the deduplicated job list on cfg.Workers workers (1 reproduces
// a strictly sequential harness), fed in cfg.Order, and collects results
// into a map keyed by job. Only scheduling is concurrent — callers
// aggregate from the map in their own order, so rendered output is
// bit-identical for any worker count. On error the first failure in job
// order is returned and partial results are discarded.
func runPool[J comparable, R any](jobs []J, cfg poolConfig[J], run func(J) (R, error)) (map[J]R, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}

	// Deduplicate while preserving first-occurrence order; grids may join
	// one cell (e.g. the unsafe baseline) into several aggregates.
	order := make([]J, 0, len(jobs))
	seen := make(map[J]bool, len(jobs))
	for _, j := range jobs {
		if !seen[j] {
			seen[j] = true
			order = append(order, j)
		}
	}
	total := len(order)
	if total == 0 {
		return map[J]R{}, nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	feed := make([]int, total)
	for k := range feed {
		feed[k] = k
	}
	if cfg.Order != nil {
		feed = cfg.Order(order, workers)
	}

	results := make([]R, total)
	errs := make([]error, total)

	// Progress calls are serialized; done counts completions, not grid
	// positions, so it increases monotonically under any worker count.
	var progressMu sync.Mutex
	done := 0
	report := func(k int) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		cfg.Progress(done, total, order[k])
		progressMu.Unlock()
	}
	// Every executed job reports, failed or not: progress accounts for
	// exactly the simulations that ran, so a caller's final tick count
	// matches executed work even when the last job fails or panics.
	exec := func(k int) {
		results[k], errs[k] = safeRun(order[k], run)
		report(k)
	}

	if workers == 1 {
		for _, k := range feed {
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			exec(k)
			if errs[k] != nil {
				return nil, errs[k]
			}
		}
	} else {
		gctx, cancel := context.WithCancel(ctx)
		defer cancel()
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for k := range idx {
					if gctx.Err() != nil {
						continue // drain the queue without simulating
					}
					exec(k)
					if errs[k] != nil {
						cancel() // first failure stops the feed; in-flight jobs finish
					}
				}
			}()
		}
	send:
		for _, k := range feed {
			if gctx.Err() != nil {
				break
			}
			select {
			case idx <- k:
			case <-gctx.Done():
				break send
			}
		}
		close(idx)
		wg.Wait()
		// Report the earliest failure in job order, not in completion
		// order, so the error does not depend on scheduling.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Cancellation surfaces its cause (context.Cause), so a caller that
		// cancels with a reason — the CLIs' signal contexts, or any
		// context.WithCancelCause — sees that reason, not a bare
		// context.Canceled.
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
	}

	out := make(map[J]R, total)
	for k, j := range order {
		out[j] = results[k]
	}
	return out, nil
}
