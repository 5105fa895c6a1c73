package spt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testJob(i int) Job {
	return Job{Workload: fmt.Sprintf("w%02d", i), Scheme: SPTFull, Model: Futuristic, Width: 3, Budget: 1_000}
}

func testGrid(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	return jobs
}

func stubResult(j Job) *Result {
	return &Result{Workload: j.Workload, Scheme: j.Scheme, Model: j.Model, Cycles: 1, Instructions: 1}
}

func TestRunGridDedupe(t *testing.T) {
	// Three logical references to two unique cells: the duplicate (the
	// "baseline joined twice" pattern) must simulate once.
	jobs := []Job{testJob(0), testJob(1), testJob(0)}
	var calls atomic.Int64
	res, err := runGrid(jobs, EvalOptions{Jobs: 4}, func(j Job) (*Result, error) {
		calls.Add(1)
		return stubResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("runs = %d, want 2 (dedupe)", calls.Load())
	}
	if len(res) != 2 {
		t.Errorf("results = %d, want 2", len(res))
	}
	for _, j := range jobs {
		if res[j] == nil || res[j].Workload != j.Workload {
			t.Errorf("missing or wrong result for %s", j)
		}
	}
}

func TestRunGridEmpty(t *testing.T) {
	res, err := runGrid(nil, EvalOptions{}, func(j Job) (*Result, error) {
		t.Error("run called for empty grid")
		return nil, nil
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty grid: res=%v err=%v", res, err)
	}
}

func TestRunGridPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 8} {
		jobs := testGrid(6)
		_, err := runGrid(jobs, EvalOptions{Jobs: workers}, func(j Job) (*Result, error) {
			if j == jobs[3] {
				panic("simulated crash")
			}
			return stubResult(j), nil
		})
		if err == nil {
			t.Fatalf("Jobs=%d: panic not converted to error", workers)
		}
		if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), jobs[3].Workload) {
			t.Errorf("Jobs=%d: panic error should name the job: %v", workers, err)
		}
	}
}

func TestRunGridSequentialOrderAndFirstError(t *testing.T) {
	jobs := testGrid(8)
	var ran []string
	wantErr := fmt.Errorf("cell failed")
	_, err := runGrid(jobs, EvalOptions{Jobs: 1}, func(j Job) (*Result, error) {
		ran = append(ran, j.Workload)
		if j == jobs[2] {
			return nil, wantErr
		}
		return stubResult(j), nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the job's error", err)
	}
	// Jobs: 1 runs in grid order and stops at the first failure.
	if want := []string{"w00", "w01", "w02"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("sequential run order = %v, want %v", ran, want)
	}
}

func TestRunGridParallelErrorPropagation(t *testing.T) {
	jobs := testGrid(32)
	wantErr := fmt.Errorf("cell failed")
	var calls atomic.Int64
	_, err := runGrid(jobs, EvalOptions{Jobs: 4}, func(j Job) (*Result, error) {
		calls.Add(1)
		if j == jobs[0] {
			return nil, wantErr
		}
		time.Sleep(time.Millisecond) // keep other workers busy past the cancel
		return stubResult(j), nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the job's error", err)
	}
	if calls.Load() >= int64(len(jobs)) {
		t.Errorf("first error should stop the grid early, but all %d jobs ran", len(jobs))
	}
}

func TestRunGridContextCancel(t *testing.T) {
	// Pre-cancelled context: nothing simulates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	run := func(j Job) (*Result, error) {
		calls.Add(1)
		return stubResult(j), nil
	}
	for _, workers := range []int{1, 4} {
		calls.Store(0)
		_, err := runGrid(testGrid(16), EvalOptions{Jobs: workers, Context: ctx}, run)
		if err != context.Canceled {
			t.Fatalf("Jobs=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Errorf("Jobs=%d: %d jobs ran under a cancelled context", workers, calls.Load())
		}
	}

	// Cancellation mid-grid stops the remaining feed.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	calls.Store(0)
	_, err := runGrid(testGrid(64), EvalOptions{Jobs: 2, Context: ctx2}, func(j Job) (*Result, error) {
		if calls.Add(1) == 3 {
			cancel2()
		}
		return stubResult(j), nil
	})
	if err != context.Canceled {
		t.Fatalf("mid-grid cancel: err = %v, want context.Canceled", err)
	}
	if calls.Load() >= 64 {
		t.Error("mid-grid cancel did not stop the feed")
	}
}

func TestRunGridProgress(t *testing.T) {
	const n = 24
	var mu sync.Mutex
	var dones []int
	var totals []int
	_, err := runGrid(testGrid(n), EvalOptions{
		Jobs: 8,
		Progress: func(done, total int, j Job) {
			mu.Lock()
			dones = append(dones, done)
			totals = append(totals, total)
			mu.Unlock()
		},
	}, func(j Job) (*Result, error) { return stubResult(j), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != n {
		t.Fatalf("progress calls = %d, want %d", len(dones), n)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence not monotonic: %v", dones)
		}
		if totals[i] != n {
			t.Fatalf("total = %d at call %d, want %d", totals[i], i, n)
		}
	}
}

// TestRunGridProgressCountsFailedJobs pins the exact-completion-accounting
// contract: progress ticks once per executed job, including the job that
// fails. Before the fix, a failing (or panicking) final job never reported,
// so a caller's tick count understated the work that actually ran.
func TestRunGridProgressCountsFailedJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 5
		jobs := testGrid(n)
		var mu sync.Mutex
		executed := 0
		var lastDone int
		_, err := runGrid(jobs, EvalOptions{
			Jobs: workers,
			Progress: func(done, total int, j Job) {
				mu.Lock()
				lastDone = done
				mu.Unlock()
			},
		}, func(j Job) (*Result, error) {
			mu.Lock()
			executed++
			mu.Unlock()
			if j == jobs[n-1] {
				panic("simulated crash in the final job")
			}
			return stubResult(j), nil
		})
		if err == nil {
			t.Fatalf("Jobs=%d: expected the panic to surface as an error", workers)
		}
		if lastDone != executed {
			t.Errorf("Jobs=%d: progress reported %d completions but %d jobs executed", workers, lastDone, executed)
		}
		// Sequentially every job up to and including the panic runs, so the
		// final tick is exactly n. (In parallel, jobs drained after the
		// cancel never execute — and correctly never report.)
		if workers == 1 && lastDone != n {
			t.Errorf("final tick = %d, want %d (the panicking job must report)", lastDone, n)
		}
	}
}

// checkNoGoroutineLeak registers a cleanup that fails the test if the
// goroutine count has not returned to (at most) its starting level shortly
// after the test body finishes — a worker goroutine leaked past wg.Wait
// would hold the count up forever.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d goroutines before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestRunGridCancelMidGridAccounting cancels the grid at several points and
// pins the exact completion-accounting contract under cancellation: every
// executed job ticks progress exactly once, no job starts after the pool
// observed the cancellation, and no worker goroutine leaks. This extends
// TestRunGridProgressCountsFailedJobs to the cancellation path the CLIs'
// signal contexts rely on.
func TestRunGridCancelMidGridAccounting(t *testing.T) {
	const n = 48
	for _, workers := range []int{1, 4, 8} {
		for _, cancelAt := range []int{1, n / 2, n - 1} {
			t.Run(fmt.Sprintf("workers=%d/cancelAt=%d", workers, cancelAt), func(t *testing.T) {
				checkNoGoroutineLeak(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var mu sync.Mutex
				executed := 0
				ticks := 0
				_, err := runGrid(testGrid(n), EvalOptions{
					Jobs:    workers,
					Context: ctx,
					Progress: func(done, total int, j Job) {
						mu.Lock()
						ticks++
						if done != ticks {
							t.Errorf("done = %d at tick %d", done, ticks)
						}
						mu.Unlock()
					},
				}, func(j Job) (*Result, error) {
					mu.Lock()
					executed++
					if executed == cancelAt {
						cancel()
					}
					mu.Unlock()
					return stubResult(j), nil
				})
				if err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				mu.Lock()
				defer mu.Unlock()
				// Promptness: after the cancelling job, only simulations
				// already in flight may finish — at most workers-1 of them,
				// plus (parallel only) one more the feed had already handed
				// over before it observed the cancellation.
				if max := cancelAt + workers; executed > max {
					t.Errorf("executed = %d jobs, want <= %d (cancel at %d with %d workers)",
						executed, max, cancelAt, workers)
				}
				if ticks != executed {
					t.Errorf("progress ticks = %d but %d jobs executed", ticks, executed)
				}
			})
		}
	}
}

// TestRunPoolCancellationCause pins that a cancellation reason set via
// context.WithCancelCause surfaces from runPool, so a caller that cancels a
// grid can tell its own callers why the grid stopped.
func TestRunPoolCancellationCause(t *testing.T) {
	wantCause := fmt.Errorf("cancelled by the caller")
	for _, workers := range []int{1, 4} {
		checkNoGoroutineLeak(t)
		ctx, cancel := context.WithCancelCause(context.Background())
		var calls atomic.Int64
		_, err := runGrid(testGrid(32), EvalOptions{Jobs: workers, Context: ctx}, func(j Job) (*Result, error) {
			if calls.Add(1) == 2 {
				cancel(wantCause)
			}
			return stubResult(j), nil
		})
		cancel(nil)
		if err != wantCause {
			t.Errorf("Jobs=%d: err = %v, want the cancellation cause", workers, err)
		}
	}
}

// TestRunJobsReal exercises the public API end to end on tiny real
// simulations and checks a parallel grid result matches a direct Run.
func TestRunJobsReal(t *testing.T) {
	jobs := []Job{
		{Workload: "gcc", Scheme: SPTFull, Model: Futuristic, Width: 3, Budget: 3_000},
		{Workload: "mcf", Scheme: UnsafeBaseline, Model: Spectre, Width: 3, Budget: 3_000},
		{Workload: "gcc", Scheme: SPTFull, Model: Futuristic, Width: 3, Budget: 3_000}, // duplicate
	}
	res, err := RunJobs(jobs, EvalOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2 (dedupe)", len(res))
	}
	direct, err := Run(jobs[0].Workload, jobs[0].options())
	if err != nil {
		t.Fatal(err)
	}
	// Host timing is wall-clock and varies run to run; only the simulated
	// results must match.
	got, want := *res[jobs[0]], *direct
	got.Host, want.Host = HostStats{}, HostStats{}
	if !reflect.DeepEqual(got, want) {
		t.Error("grid result differs from a direct Run of the same cell")
	}
}

// TestRunJobsCancelsInFlightCell pins that cancelling the grid's context
// stops a detailed simulation mid-run, not only between cells: the one
// cell here would run for minutes, and RunJobs must return the
// cancellation cause within seconds at any worker count.
func TestRunJobsCancelsInFlightCell(t *testing.T) {
	jobs := []Job{{Workload: "gcc", Scheme: SPTFull, Model: Futuristic, Width: 3, Budget: 50_000_000}}
	for _, workers := range []int{1, 4} {
		cause := fmt.Errorf("cancelled mid-cell at Jobs=%d", workers)
		ctx, cancel := context.WithCancelCause(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := RunJobs(jobs, EvalOptions{Jobs: workers, Context: ctx})
			done <- err
		}()
		time.Sleep(30 * time.Millisecond)
		cancel(cause)
		select {
		case err := <-done:
			if !errors.Is(err, cause) {
				t.Errorf("Jobs=%d: err = %v, want the cancellation cause", workers, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("Jobs=%d: RunJobs still running 20s after cancellation", workers)
		}
	}
}

// TestJobRunnerReleasesOwnStore: the store a sampled grid's runner makes
// for itself holds a workload's checkpoints and kept walker only until the
// workload's last cell has returned, whether that cell succeeded or
// failed; a store the caller supplies is never pruned.
func TestJobRunnerReleasesOwnStore(t *testing.T) {
	sample := SampleSpec{Intervals: 2, Warmup: 100, Detail: 400}
	cell := func(w string, s Scheme) Job {
		return Job{Workload: w, Scheme: s, Model: Futuristic, Width: 3, Budget: 8_000, Sample: sample}
	}
	jobs := []Job{
		cell("mcf", UnsafeBaseline),
		cell("gcc", UnsafeBaseline),
		cell("mcf", SPTFull),
		cell("mcf", SPTFull), // a duplicate runs once
		// An unknown scheme fails after taking its first window from
		// the store: gcc's last cell returns an error.
		cell("gcc", "no-such-scheme"),
	}

	r := newJobRunner(jobs, EvalOptions{})
	if r.store == nil {
		t.Fatal("a sampled grid's runner has no store")
	}
	// After the n-th returned cell (Jobs 1 runs them in grid order), which
	// workloads the store may still hold.
	want := []map[string]bool{
		{"mcf": true, "gcc": false},
		{"mcf": true, "gcc": true},
		{"mcf": false, "gcc": true},
		{"mcf": false, "gcc": false},
	}
	progress := func(done, _ int, j Job) {
		for w, held := range want[done-1] {
			if got := r.store.inner.Holds(w); got != held {
				t.Errorf("after %v returned: store holds %s = %v, want %v", j, w, got, held)
			}
		}
	}
	if _, err := runGrid(jobs, EvalOptions{Jobs: 1, Progress: progress}, r.run); err == nil {
		t.Fatal("grid with an unknown scheme succeeded")
	}

	// Fed walk-ahead, the runner's own store holds at most twice the
	// worker count of workloads at once, and none once the grid returns.
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	for _, g := range []struct {
		name  string
		shape func(j *Job)
	}{
		{"sampled", func(j *Job) { j.Budget, j.Sample = 2_000, SampleSpec{Intervals: 2, Warmup: 50, Detail: 200} }},
		{"skip", func(j *Job) { j.Budget, j.Skip = 300, 3_000 }},
	} {
		var grid []Job
		for _, w := range names {
			for _, s := range Schemes()[:3] {
				j := Job{Workload: w, Scheme: s, Model: Futuristic, Width: 3}
				g.shape(&j)
				grid = append(grid, j)
			}
		}
		for _, workers := range []int{2, 8} {
			r := newJobRunner(grid, EvalOptions{})
			held := func() (n int) {
				for _, w := range names {
					if r.store.inner.Holds(w) {
						n++
					}
				}
				return n
			}
			most := 0
			progress := func(_, _ int, j Job) {
				if n := held(); n > most {
					most = n
				}
			}
			if _, err := runGrid(grid, EvalOptions{Jobs: workers, Progress: progress}, r.run); err != nil {
				t.Fatalf("%s grid at Jobs %d: %v", g.name, workers, err)
			}
			if most > 2*workers {
				t.Errorf("%s grid at Jobs %d: store held %d workloads at once, want at most %d", g.name, workers, most, 2*workers)
			}
			if n := held(); n != 0 {
				t.Errorf("%s grid at Jobs %d: store still holds %d workloads after the grid", g.name, workers, n)
			}
		}
	}

	supplied := NewCheckpointStore("")
	r = newJobRunner(jobs[:3], EvalOptions{Checkpoints: supplied})
	if r.store != supplied {
		t.Fatal("runner did not use the supplied store")
	}
	if _, err := runGrid(jobs[:3], EvalOptions{Jobs: 2}, r.run); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"mcf", "gcc"} {
		if !supplied.inner.Holds(w) {
			t.Errorf("supplied store was pruned of %s", w)
		}
	}
}

// prefixGrid is a Figure 7-shaped grid of stub cells: n workloads × the
// first schemes of Schemes(), each cell shaped by cell (Skip or Sample).
func prefixGrid(n, schemes int, cell func(j *Job)) []Job {
	var jobs []Job
	for i := 0; i < n; i++ {
		for _, s := range Schemes()[:schemes] {
			j := testJob(i)
			j.Scheme = s
			cell(&j)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func skipCell(j *Job) { j.Skip = 1_000_000 }

func sampledCell(j *Job) { j.Sample = SampleSpec{Intervals: 4, Warmup: 100, Detail: 400} }

func TestWalkAheadOrder(t *testing.T) {
	detail := func(*Job) {}
	// Mixed: a full-detail cell, two skip distances of one workload, and
	// a sampled workload, interleaved in grid order.
	mixed := []Job{testJob(0), testJob(1), testJob(1), testJob(2), testJob(1), testJob(3), testJob(2)}
	mixed[1].Skip, mixed[2].Skip, mixed[4].Skip = 500, 900, 500
	mixed[2].Scheme, mixed[4].Scheme = STT, STT
	mixed[3].Sample, mixed[6].Sample = SampleSpec{Intervals: 2}, SampleSpec{Intervals: 2}
	mixed[6].Scheme = STT
	cases := []struct {
		name string
		jobs []Job
	}{
		{"detail", prefixGrid(19, 8, detail)},
		{"skip", prefixGrid(19, 8, skipCell)},
		{"sampled", prefixGrid(19, 8, sampledCell)},
		{"one workload", prefixGrid(1, 8, skipCell)},
		{"one scheme", prefixGrid(5, 1, skipCell)},
		{"mixed", mixed},
	}
	// group names the store entry a cell's prefix comes from.
	group := func(j Job) string {
		switch {
		case j.Skip > 0:
			return fmt.Sprintf("%s skip=%d", j.Workload, j.Skip)
		case j.Sample.enabled():
			return j.Workload + " sampled"
		}
		return j.String()
	}
	for _, c := range cases {
		prefixed := slices.ContainsFunc(c.jobs, func(j Job) bool { return j.Skip > 0 || j.Sample.enabled() })
		// A group's first cell in grid order is the one that walks.
		first := map[string]int{}
		for k, j := range c.jobs {
			if _, ok := first[group(j)]; !ok {
				first[group(j)] = k
			}
		}
		for _, workers := range []int{1, 2, 3, 4, 8, 200} {
			order := walkAheadOrder(c.jobs, workers)
			if len(order) != len(c.jobs) {
				t.Fatalf("%s, %d workers: %d positions for %d jobs", c.name, workers, len(order), len(c.jobs))
			}
			seen := make([]bool, len(c.jobs))
			identity := true
			for i, k := range order {
				if k < 0 || k >= len(c.jobs) || seen[k] {
					t.Fatalf("%s, %d workers: %v is not a permutation", c.name, workers, order)
				}
				seen[k] = true
				identity = identity && k == i
			}
			if (workers == 1 || !prefixed) && !identity {
				t.Errorf("%s, %d workers: order %v, want the grid order", c.name, workers, order)
			}
			out := map[string]bool{}
			for _, k := range order {
				g := group(c.jobs[k])
				if !out[g] && k != first[g] {
					t.Errorf("%s, %d workers: %s goes out before its group's first cell %s",
						c.name, workers, c.jobs[k], c.jobs[first[g]])
				}
				out[g] = true
			}
		}
	}

	// Three workloads of two cells at two workers: the first cells of
	// groups 0 and 1, the rest of group 0, the first cell of group 2, and
	// so on.
	if got, want := walkAheadOrder(prefixGrid(3, 2, skipCell), 2), []int{0, 2, 1, 4, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("3×2 skip grid at 2 workers: order %v, want %v", got, want)
	}
	if got, want := walkAheadOrder(prefixGrid(3, 2, sampledCell), 3), []int{0, 2, 4, 1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("3×2 sampled grid at 3 workers: order %v, want %v", got, want)
	}
}

// TestRunGridOverlapsPrefixWalks drives runGrid over a 19-workload ×
// 8-scheme Skip grid with a run function that models the checkpoint
// store's singleflight: the first cell of a workload to start walks its
// prefix, and every later cell of the workload waits until that walk has
// returned. A walk itself finishes only once some other workload's walk
// has started, so the grid completes only if different workers walk
// different workloads at once. Fed in grid order, the second worker
// blocks behind the first walk and the first walk waits for a second one
// that never starts; each wait gives up after 10 s and fails the grid.
func TestRunGridOverlapsPrefixWalks(t *testing.T) {
	const wait = 10 * time.Second
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("jobs=%d", workers), func(t *testing.T) {
			checkNoGoroutineLeak(t)
			var (
				mu      sync.Mutex
				walks   = map[string]chan struct{}{} // closed when the workload's walk returns
				started int
				overlap = make(chan struct{}) // closed when a second walk starts
			)
			run := func(j Job) (*Result, error) {
				mu.Lock()
				walked, waits := walks[j.Workload]
				if !waits {
					walked = make(chan struct{})
					walks[j.Workload] = walked
					if started++; started == 2 {
						close(overlap)
					}
				}
				mu.Unlock()
				if waits {
					select {
					case <-walked:
						return stubResult(j), nil
					case <-time.After(wait):
						return nil, fmt.Errorf("%s waited %v for its workload's walk", j, wait)
					}
				}
				defer close(walked)
				select {
				case <-overlap:
					return stubResult(j), nil
				case <-time.After(wait):
					return nil, fmt.Errorf("%s walked alone for %v", j, wait)
				}
			}
			jobs := prefixGrid(19, 8, skipCell)
			res, err := runGrid(jobs, EvalOptions{Jobs: workers}, run)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(jobs) || len(walks) != 19 {
				t.Errorf("%d results and %d walks, want %d and 19", len(res), len(walks), len(jobs))
			}
		})
	}
}
