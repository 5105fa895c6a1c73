// Package stats is a gem5-style hardware-counter registry for the
// simulator: fixed-slot scalar counters, power-of-two-bucket histograms,
// and derived formulas (rates, ratios, per-kilo-instruction figures).
//
// The design splits responsibilities so the hot loop pays nothing for
// observability:
//
//   - Counters live as plain uint64 fields (and Hist values) inline in the
//     component structs that own them (pipeline.Stats, mem.CacheStats,
//     taint.Stats, ...). The per-cycle loops increment them with ordinary
//     struct-field adds — no map lookups, no interface calls, no
//     allocation per event.
//   - A Registry is built on first use (pipeline.Core.StatsRegistry
//     registers the core, memory system, predictors, and the attached
//     policy), so a run that never dumps never builds one. It only
//     records names, descriptions, and pointers to those fields.
//   - Dump snapshots the registry into a serializable, deterministic form
//     after the run; formulas are evaluated exactly once, at dump time.
//
// Registration order is dump order, so two runs of the same configuration
// produce byte-identical text and JSON output.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// HistBuckets is the fixed bucket count of every histogram. Bucket 0 holds
// observations of exactly 0; bucket i (i >= 1) holds values in
// [2^(i-1), 2^i); the last bucket absorbs everything larger.
const HistBuckets = 24

// Hist is a power-of-two-bucket histogram. The zero value is ready to use;
// Observe is a handful of integer operations and never allocates, so
// histograms can sit inline in hot-loop stats structs.
type Hist struct {
	N       uint64 // observations
	Sum     uint64 // sum of observed values
	Max     uint64 // largest observed value
	Buckets [HistBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	i := bits.Len64(v) // 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// BucketBounds returns the closed value range [lo, hi] covered by bucket i.
// The last bucket is open-ended; its hi is the maximum uint64.
func BucketBounds(i int) (lo, hi uint64) {
	switch {
	case i <= 0:
		return 0, 0
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), ^uint64(0)
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// entryKind discriminates registry entries.
type entryKind uint8

const (
	kindScalar entryKind = iota
	kindFormula
	kindHist
)

type entry struct {
	name, desc string
	kind       entryKind
	scalar     *uint64
	hist       *Hist
	formula    func() float64
}

// Registry holds descriptors for counters owned elsewhere. Build it once at
// construction; it is not safe for concurrent registration and never
// touched by the simulation loop.
type Registry struct {
	entries []entry
	names   map[string]bool
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(e entry) {
	if r.names[e.name] {
		panic(fmt.Sprintf("stats: duplicate registration of %q", e.name))
	}
	r.names[e.name] = true
	r.entries = append(r.entries, e)
}

// Scalar registers a counter field. The pointer must stay valid for the
// registry's lifetime (counters live inline in long-lived component
// structs).
func (r *Registry) Scalar(name, desc string, v *uint64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil scalar %q", name))
	}
	r.add(entry{name: name, desc: desc, kind: kindScalar, scalar: v})
}

// Hist registers a histogram field.
func (r *Registry) Hist(name, desc string, h *Hist) {
	if h == nil {
		panic(fmt.Sprintf("stats: nil histogram %q", name))
	}
	r.add(entry{name: name, desc: desc, kind: kindHist, hist: h})
}

// Formula registers a derived statistic, evaluated at Dump time. Formulas
// must be deterministic functions of registered counters (guard divisions
// by zero; NaN and Inf would break the deterministic renderings).
func (r *Registry) Formula(name, desc string, f func() float64) {
	if f == nil {
		panic(fmt.Sprintf("stats: nil formula %q", name))
	}
	r.add(entry{name: name, desc: desc, kind: kindFormula, formula: f})
}

// Len reports the number of registered statistics.
func (r *Registry) Len() int { return len(r.entries) }

// Bucket is one non-empty histogram bucket in a dump.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// DistValue is a histogram snapshot. Only non-empty buckets are kept.
type DistValue struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Value is one dumped statistic.
type Value struct {
	Name string `json:"name"`
	Desc string `json:"desc,omitempty"`
	// Kind is "scalar", "formula", or "dist".
	Kind   string     `json:"kind"`
	Scalar uint64     `json:"scalar,omitempty"`
	Float  float64    `json:"float,omitempty"`
	Dist   *DistValue `json:"dist,omitempty"`
}

// Dump is a deterministic snapshot of a registry: values in registration
// order, formulas evaluated. It is fully detached from the live counters.
// Engine, when set by the caller (spt stamps its EngineVersion), versions
// the JSON form so archived counter dumps are distinguishable across code
// changes.
type Dump struct {
	Engine string  `json:"engine,omitempty"`
	Values []Value `json:"values"`
}

// Dump snapshots every registered statistic.
func (r *Registry) Dump() *Dump {
	d := &Dump{Values: make([]Value, 0, len(r.entries))}
	for _, e := range r.entries {
		v := Value{Name: e.name, Desc: e.desc}
		switch e.kind {
		case kindScalar:
			v.Kind = "scalar"
			v.Scalar = *e.scalar
		case kindFormula:
			v.Kind = "formula"
			v.Float = e.formula()
		case kindHist:
			v.Kind = "dist"
			h := e.hist
			dv := &DistValue{Count: h.N, Sum: h.Sum, Max: h.Max, Mean: h.Mean()}
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				lo, hi := BucketBounds(i)
				dv.Buckets = append(dv.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
			}
			v.Dist = dv
		}
		d.Values = append(d.Values, v)
	}
	return d
}

// Get returns the dumped value with the given name.
func (d *Dump) Get(name string) (Value, bool) {
	for _, v := range d.Values {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// JSON renders the dump as indented JSON with a trailing newline. The
// output is byte-identical for identical counter values (slice order is
// registration order; no maps are involved).
func (d *Dump) JSON() (string, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// bucketLabel renders a bucket range in the gem5 distribution style.
func bucketLabel(b Bucket) string {
	switch {
	case b.Lo == b.Hi:
		return fmt.Sprintf("[%d]", b.Lo)
	case b.Hi == ^uint64(0):
		return fmt.Sprintf("[%d,+)", b.Lo)
	default:
		return fmt.Sprintf("[%d,%d]", b.Lo, b.Hi)
	}
}

// WriteText renders the dump in the gem5 stats.txt style: one counter per
// line, `name value # description`, with histogram buckets indented under
// their summary lines.
func (d *Dump) WriteText(w io.Writer) error {
	for _, v := range d.Values {
		var err error
		switch v.Kind {
		case "scalar":
			_, err = fmt.Fprintf(w, "%-42s %14d  # %s\n", v.Name, v.Scalar, v.Desc)
		case "formula":
			_, err = fmt.Fprintf(w, "%-42s %14.4f  # %s\n", v.Name, v.Float, v.Desc)
		case "dist":
			if _, err = fmt.Fprintf(w, "%-42s %14d  # %s (mean %.2f, max %d)\n",
				v.Name+"::count", v.Dist.Count, v.Desc, v.Dist.Mean, v.Dist.Max); err != nil {
				return err
			}
			for _, b := range v.Dist.Buckets {
				if _, err = fmt.Fprintf(w, "%-42s %14d\n", v.Name+"::"+bucketLabel(b), b.Count); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Text renders the dump as a string (see WriteText).
func (d *Dump) Text() string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = d.WriteText(&b)
	return b.String()
}
