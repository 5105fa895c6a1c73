package fuzz

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"spt/internal/attack"
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// Campaign coverage is defined over observation-trace *shape*, not code
// coverage: two gadgets are "the same" when they open the same kind of
// speculation window (primitive), encode through the same channel
// (transmitter), squash to the same depth, and emit the same pattern of
// observable events on the reference cell (unsafe/futuristic — the one
// configuration where every transient access is visible). A campaign that
// keeps generating gadgets landing in occupied buckets is wasting oracle
// time; gadgets that open a new bucket are the interesting frontier and
// seed the next generation's mutations.

// Shape is the microarchitectural fingerprint of one case on the
// reference cell.
type Shape struct {
	// MaxSquash is the deepest single squash (instructions discarded by
	// one squash event) observed during the run.
	MaxSquash uint64
	// Sig is the run-length-compressed observation-event signature, e.g.
	// "L3T1R2": event kinds in order, each annotated with the power-of-two
	// bucket of its run length.
	Sig string
}

// sigMaxRuns caps the signature length so pathological traces cannot
// explode bucket cardinality; longer traces share a "+" suffix bucket.
const sigMaxRuns = 12

// TraceSignature compresses an observation trace ("L@cycle:addr" events)
// into its kind signature: consecutive events of the same kind collapse
// into one run, and run lengths are bucketed by power of two (bits.Len64)
// so a 5-event and a 6-event burst land in the same bucket while 1 vs 100
// do not.
func TraceSignature(trace []string) string {
	if len(trace) == 0 {
		return "empty"
	}
	var sb strings.Builder
	runs := 0
	kind := trace[0][0]
	n := uint64(0)
	flush := func() {
		if runs < sigMaxRuns {
			fmt.Fprintf(&sb, "%c%d", kind, bits.Len64(n))
		} else if runs == sigMaxRuns {
			sb.WriteByte('+')
		}
		runs++
	}
	for _, ev := range trace {
		if ev[0] == kind {
			n++
			continue
		}
		flush()
		kind = ev[0]
		n = 1
	}
	flush()
	return sb.String()
}

// BucketKey names the coverage bucket for a case's metadata and shape:
// primitive × transmitter × squash-depth bucket × trace signature.
func BucketKey(prim Primitive, tx Transmitter, sh Shape) string {
	return fmt.Sprintf("%s|%s|q%d|%s", prim, tx, bits.Len64(sh.MaxSquash), sh.Sig)
}

// ReferenceObservation runs prog (a patched secret twin) on the reference
// cell — the unsafe baseline under the futuristic model, where every
// transient access is observable — and returns the observation trace plus
// the shape signal. The trace is attack.Observe's for that cell, so it is
// byte-identical to attack.ObservationTrace(prog, pipeline.Futuristic,
// nil), and campaign callers can reuse it as the unsafe/futuristic A-side
// trace instead of re-simulating that cell.
func ReferenceObservation(prog *isa.Program) ([]string, Shape, error) {
	trace, st, finished, err := attack.Observe(prog, pipeline.Futuristic, nil)
	if err != nil {
		return nil, Shape{}, err
	}
	if !finished {
		return nil, Shape{}, fmt.Errorf("fuzz: %s did not finish on the reference cell", prog.Name)
	}
	sh := Shape{MaxSquash: st.SquashDepth.Max, Sig: TraceSignature(trace)}
	return trace, sh, nil
}

// Coverage is the campaign's bucket map: how many cases landed in each
// bucket and which unit opened it.
type Coverage struct {
	Counts map[string]int
	First  map[string]int // bucket -> unit id that first hit it
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage {
	return &Coverage{Counts: map[string]int{}, First: map[string]int{}}
}

// Add records one case in a bucket and reports whether the bucket was
// previously empty. Calls must be made in ascending unit order for First
// to be deterministic.
func (c *Coverage) Add(bucket string, unit int) bool {
	fresh := c.Counts[bucket] == 0
	c.Counts[bucket]++
	if fresh {
		c.First[bucket] = unit
	}
	return fresh
}

// Keys returns the bucket names in sorted order.
func (c *Coverage) Keys() []string {
	keys := make([]string, 0, len(c.Counts))
	for k := range c.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CoverageFromRecords rebuilds the bucket map from campaign unit records
// (in ascending unit order). Rejected units — mutants that broke the
// differential contract — carry no bucket and are skipped.
func CoverageFromRecords(units []UnitRecord) *Coverage {
	cov := NewCoverage()
	for _, u := range units {
		if u.Bucket != "" {
			cov.Add(u.Bucket, u.Unit)
		}
	}
	return cov
}
