package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one run as -record appends it; -compare reads files of them.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json this program and its tests
// read.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict judges B against A by the rule for claiming a gain in a small
// sandbox: improved only when B wins at least nine tenths of the pairs
// (ties count for neither) and the medians differ by more than A's
// interquartile range; regressed when B's median is worse than A's by more
// than the bound; unresolved when either side's spread exceeds the bound.
// Without a bound (per-layer metrics) only an improvement is judged.
func verdict(a, b []float64, better string, bound float64) (string, int) {
	lower := better == "lower"
	wins := 0
	for i := 0; i < min(len(a), len(b)); i++ {
		if (lower && b[i] < a[i]) || (!lower && b[i] > a[i]) {
			wins++
		}
	}
	pairs := min(len(a), len(b))
	medA, medB := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	gain := medA - medB
	if !lower {
		gain = -gain
	}
	switch {
	case pairs > 0 && gain > 0 && 10*wins >= 9*pairs && math.Abs(medB-medA) > q3a-q1a:
		return "improved", wins
	case math.IsNaN(bound):
		return "-", wins
	case -gain/medA > bound:
		return "regressed", wins
	case (q3a-q1a)/medA > bound || (q3b-q1b)/medB > bound:
		return "unresolved", wins
	}
	return "within bound", wins
}

// compare prints, for every workload and metric the two record files
// share, each side's median and quartiles, the relative change and the
// verdict. Runs pair up in file order.
func compare(aPath, bPath string, bf *benchmarkFile, w io.Writer) error {
	as, err := readRecords(aPath)
	if err != nil {
		return err
	}
	bs, err := readRecords(bPath)
	if err != nil {
		return err
	}
	type spec struct {
		metricSpec
		bound float64
	}
	var specs []spec
	for _, m := range bf.EndToEnd {
		specs = append(specs, spec{m.metricSpec, m.Bound})
	}
	for _, m := range bf.PerLayer {
		specs = append(specs, spec{m, math.NaN()})
	}
	type key struct {
		workload string
		trace    bool
	}
	values := func(rs []record) (map[key]map[string][]float64, []key) {
		out := map[key]map[string][]float64{}
		var keys []key
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if out[k] == nil {
				out[k] = map[string][]float64{}
				keys = append(keys, k)
			}
			for name, v := range r.Metrics {
				out[k][name] = append(out[k][name], v.Value)
			}
		}
		return out, keys
	}
	av, keys := values(as)
	bv, _ := values(bs)
	sort.SliceStable(keys, func(i, j int) bool { return !keys[i].trace && keys[j].trace })
	fmt.Fprintf(w, "A = %s, B = %s\n", aPath, bPath)
	fmt.Fprintf(w, "%-13s %-38s %10s %21s %10s %21s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "wins", "verdict")
	for _, k := range keys {
		for _, s := range specs {
			a, b := av[k][s.Name], bv[k][s.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, wins := verdict(a, b, s.Better, s.bound)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			fmt.Fprintf(w, "%-13s %-38s %10.4g %10.4g..%-9.4g %10.4g %10.4g..%-9.4g %+7.2f%% %2d/%-3d  %s\n",
				k.workload, s.Name, median(a), q1a, q3a, median(b), q1b, q3b,
				100*(median(b)/median(a)-1), wins, min(len(a), len(b)), v)
		}
	}
	return nil
}
