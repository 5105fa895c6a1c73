package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spt/internal/pipeline"
	"spt/internal/stats"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. All spans of one grid cell,
// campaign unit or verify cell share Cell; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// cellInfo describes one traced cell: what it ran and the counts measured
// where the work happened.
type cellInfo struct {
	Kind     string `json:"kind"` // Figure 7 mode, "campaign", "verify", or a probe
	Workload string `json:"workload,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Cycles, Retired and Fetched are the detailed core's counts; for
	// probes Retired is the instructions executed functionally.
	Cycles  uint64 `json:"cycles,omitempty"`
	Retired uint64 `json:"retired,omitempty"`
	Fetched uint64 `json:"fetched,omitempty"`
	// Walked is the instructions a sampled cell fast-forwarded.
	Walked uint64 `json:"walked,omitempty"`
	// Accesses and Branches are the events a warm-replay probe streamed.
	Accesses uint64 `json:"accesses,omitempty"`
	Branches uint64 `json:"branches,omitempty"`
	// Hooks holds the policy-hook counts of a protected detailed cell.
	Hooks *hookCounts `json:"hooks,omitempty"`
}

// tracer collects spans in memory from any number of workers and writes
// them out at the end of the run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// timerNs is what an empty timed interval reads on this host; sampled
	// Tick timings subtract it.
	timerNs float64

	mu    sync.Mutex
	recs  []*rec
	cells []cellInfo
	// counts holds run-level tallies (campaign units, verify verdicts).
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), timerNs: emptyIntervalNs(), counts: map[string]float64{}}
}

// emptyIntervalNs measures the mean reading of a timed interval with
// nothing in it: the cost one timestamp pair adds to a measurement.
func emptyIntervalNs() float64 {
	const n = 100_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / n
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// rec returns a span buffer for one goroutine.
func (t *tracer) rec() *rec {
	r := &rec{t: t}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// cell registers a cell and returns its id.
func (t *tracer) cell(info cellInfo) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells = append(t.cells, info)
	return len(t.cells) - 1
}

// update changes a registered cell.
func (t *tracer) update(id int, f func(*cellInfo)) {
	t.mu.Lock()
	f(&t.cells[id])
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// spans returns every recorded span ordered by start time. Call it only
// after the workers have finished.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, r := range t.recs {
		all = append(all, r.buf...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// absorb merges a traced child's cells, spans and counts, renumbering its
// cells and spans after this tracer's and moving its timestamps onto this
// tracer's clock.
func (t *tracer) absorb(d traceDoc) {
	var maxID int64
	for _, s := range d.Spans {
		maxID = max(maxID, s.ID)
	}
	idBase := t.ids.Add(maxID) - maxID
	shift := d.EpochNs - t.epoch.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	cellBase := len(t.cells)
	t.cells = append(t.cells, d.Cells...)
	r := &rec{t: t, buf: make([]span, len(d.Spans))}
	for i, s := range d.Spans {
		s.ID += idBase
		if s.Parent != 0 {
			s.Parent += idBase
		}
		s.Cell += cellBase
		s.Start += shift
		s.End += shift
		r.buf[i] = s
	}
	t.recs = append(t.recs, r)
	for k, v := range d.Counts {
		t.counts[k] += v
	}
}

// write stores the cells and spans as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		Cells []cellInfo `json:"cells"`
		Spans []span     `json:"spans"`
	}{t.cells, t.spans()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// pool runs fn for indices 0..n-1 on jobs workers, each with its own span
// buffer, and returns the first error in index order.
func (t *tracer) pool(jobs, n int, fn func(r *rec, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(jobs, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := t.rec()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = fn(r, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rec is one goroutine's span buffer.
type rec struct {
	t   *tracer
	buf []span
}

// begin opens a span and returns its handle.
func (r *rec) begin(cell int, parent int64, name string) int {
	r.buf = append(r.buf, span{ID: r.t.ids.Add(1), Parent: parent, Cell: cell, Name: name, Start: r.t.now()})
	return len(r.buf) - 1
}

func (r *rec) end(h int)      { r.buf[h].End = r.t.now() }
func (r *rec) id(h int) int64 { return r.buf[h].ID }

// timed records fn as one span.
func (r *rec) timed(cell int, parent int64, name string, fn func()) {
	h := r.begin(cell, parent, name)
	fn()
	r.end(h)
}

// tickSample is the fraction of Tick calls timed: one timestamp pair costs
// more than most policy hooks, so timing every call would distort the run.
const tickSample = 16

// preemptedNs bounds a sampled Tick: one that took longer was descheduled
// part-way, and is dropped rather than extrapolated to tickSample calls.
// The slowest policy averages under a microsecond per Tick.
const preemptedNs = 100_000

// hookCounts is what hookedPolicy measured for one core.
type hookCounts struct {
	// Calls counts every hook call other than Tick.
	Calls uint64 `json:"calls"`
	Ticks uint64 `json:"ticks"`
	// TickTimed Tick calls took TickNs in total, timer cost subtracted;
	// preempted samples are in neither.
	TickTimed uint64  `json:"tick_timed"`
	TickNs    float64 `json:"tick_ns"`
}

// add accumulates the counts between two readings of one policy.
func (h *hookCounts) add(now, before hookCounts) {
	h.Calls += now.Calls - before.Calls
	h.Ticks += now.Ticks - before.Ticks
	h.TickTimed += now.TickTimed - before.TickTimed
	h.TickNs += now.TickNs - before.TickNs
}

// tickTotalNs extrapolates the sampled Tick time to every call.
func (h *hookCounts) tickTotalNs() float64 {
	if h.TickTimed == 0 {
		return 0
	}
	// A Tick cheaper than the timer's jitter can sum below zero.
	return max(0, h.TickNs*float64(h.Ticks)/float64(h.TickTimed))
}

// hookedPolicy forwards every pipeline hook, including the optional
// STLQuery, ObliviousPolicy and StatsRegistrar extensions, to the scheme's
// policy. It counts hook calls exactly and times one Tick in tickSample.
// An extension the wrapped policy lacks answers as the pipeline does when
// a policy does not implement it.
type hookedPolicy struct {
	inner   pipeline.Policy
	stl     pipeline.STLQuery
	obl     pipeline.ObliviousPolicy
	timerNs float64
	n       hookCounts
}

func newHookedPolicy(inner pipeline.Policy, timerNs float64) *hookedPolicy {
	p := &hookedPolicy{inner: inner, timerNs: timerNs}
	p.stl, _ = inner.(pipeline.STLQuery)
	p.obl, _ = inner.(pipeline.ObliviousPolicy)
	return p
}

func (p *hookedPolicy) Attach(c *pipeline.Core) { p.inner.Attach(c) }

func (p *hookedPolicy) OnRename(di *pipeline.DynInst) { p.n.Calls++; p.inner.OnRename(di) }
func (p *hookedPolicy) OnSquash(di *pipeline.DynInst) { p.n.Calls++; p.inner.OnSquash(di) }
func (p *hookedPolicy) OnRetire(di *pipeline.DynInst) { p.n.Calls++; p.inner.OnRetire(di) }
func (p *hookedPolicy) OnVP(di *pipeline.DynInst)     { p.n.Calls++; p.inner.OnVP(di) }

func (p *hookedPolicy) OnLoadComplete(di *pipeline.DynInst) {
	p.n.Calls++
	p.inner.OnLoadComplete(di)
}

func (p *hookedPolicy) MayExecuteMem(di *pipeline.DynInst) bool {
	p.n.Calls++
	return p.inner.MayExecuteMem(di)
}

func (p *hookedPolicy) MayResolveCF(di *pipeline.DynInst) bool {
	p.n.Calls++
	return p.inner.MayResolveCF(di)
}

func (p *hookedPolicy) MaySquashOnViolation(ld *pipeline.DynInst) bool {
	p.n.Calls++
	return p.inner.MaySquashOnViolation(ld)
}

func (p *hookedPolicy) Tick() {
	p.n.Ticks++
	if p.n.Ticks%tickSample != 0 {
		p.inner.Tick()
		return
	}
	t0 := time.Now()
	p.inner.Tick()
	if d := float64(time.Since(t0)); d < preemptedNs {
		p.n.TickNs += d - p.timerNs
		p.n.TickTimed++
	}
}

func (p *hookedPolicy) STLForwardPublic(st, ld *pipeline.DynInst) bool {
	if p.stl == nil {
		return false
	}
	p.n.Calls++
	return p.stl.STLForwardPublic(st, ld)
}

func (p *hookedPolicy) ObliviousLatency(di *pipeline.DynInst) (uint64, bool) {
	if p.obl == nil {
		return 0, false
	}
	p.n.Calls++
	return p.obl.ObliviousLatency(di)
}

func (p *hookedPolicy) RegisterStats(r *stats.Registry) {
	if sr, ok := p.inner.(pipeline.StatsRegistrar); ok {
		sr.RegisterStats(r)
	}
}
