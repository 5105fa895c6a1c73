package attack_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"spt/internal/attack"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// TestObservationTraceReusesCores pins what one leakage-oracle run
// allocates once the pool holds a core: under 64 KiB per call on a
// generated gadget, averaged over 50 calls, policy included. Building a
// core with its predictor tables allocates about 300 KB, so a call that
// builds one fails.
func TestObservationTraceReusesCores(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	const calls = 50
	prog := fuzz.PatchSecret(fuzz.Generate(3).Prog, fuzz.SecretA)
	for _, scheme := range []string{"unsafe", "spt", "stt"} {
		run := func() {
			pol, err := fuzz.PolicyByName(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := attack.ObservationTrace(prog, pipeline.Futuristic, pol); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: the pool builds its first core
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
			t.Errorf("%s: ObservationTrace allocates %d B per call, want under %d", scheme, per, 64<<10)
		} else {
			t.Logf("%s: %d B per call", scheme, per)
		}
	}
}

// TestObservationTraceConcurrent runs the oracle from several goroutines
// at once, so pooled cores move between them, and requires every trace to
// equal the one a serial run gives.
func TestObservationTraceConcurrent(t *testing.T) {
	type cell struct {
		prog   *isa.Program
		scheme string
	}
	var cells []cell
	for seed := int64(1); seed <= 6; seed++ {
		for _, scheme := range []string{"unsafe", "spt", "stt"} {
			cells = append(cells, cell{fuzz.PatchSecret(fuzz.Generate(seed).Prog, fuzz.SecretB), scheme})
		}
	}
	trace := func(c cell) ([]string, error) {
		pol, err := fuzz.PolicyByName(c.scheme)
		if err != nil {
			return nil, err
		}
		return attack.ObservationTrace(c.prog, pipeline.Futuristic, pol)
	}
	want := make([][]string, len(cells))
	for i, c := range cells {
		var err error
		if want[i], err = trace(c); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				i := (i + g*5) % len(cells)
				got, err := trace(cells[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("%s under %s: concurrent trace differs from the serial one", cells[i].prog.Name, cells[i].scheme)
				}
			}
		}()
	}
	wg.Wait()
}
