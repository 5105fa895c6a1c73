package checkpoint

import (
	"reflect"
	"sync"
	"testing"

	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/workloads"
)

// windowSkips are ascending, uneven window starts: the fig7-sampled
// windows (250k budget, sample 4:100:400) with a pair one instruction
// apart in between.
var windowSkips = []uint64{62_000, 100_003, 100_004, 124_500, 187_000, 249_500}

// sameAsBuild fails the test unless cp is exactly the checkpoint a fresh
// Build makes at skip: the same architectural snapshot and deeply equal
// warm hierarchy and predictor.
func sameAsBuild(t *testing.T, p *isa.Program, skip uint64, cp *Checkpoint) {
	t.Helper()
	ref, err := Build(p, skip, mem.DefaultHierarchyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Snap.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snap.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s@%d: window snapshot differs from Build", p.Name, skip)
	}
	if !reflect.DeepEqual(cp.Hier, ref.Hier) {
		t.Fatalf("%s@%d: window warm hierarchy differs from Build", p.Name, skip)
	}
	if !reflect.DeepEqual(cp.Pred, ref.Pred) {
		t.Fatalf("%s@%d: window warm predictor differs from Build", p.Name, skip)
	}
}

// TestStoreWindowsMatchBuild: on every kernel, windows taken through the
// store's kept walker at ascending skips are exactly the checkpoints of a
// fresh Build at each skip, from one functional pass per program; a
// smaller skip that is not cached starts a second pass and is exact too.
func TestStoreWindowsMatchBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	hcfg := mem.DefaultHierarchyConfig()
	for _, wl := range workloads.All() {
		p := wl.Build(1 << 40)
		s := NewStore("")
		key := KeyFor(p, 0, hcfg, true)
		for _, skip := range windowSkips {
			key.Skip = skip
			cp, err := s.Window(p, key)
			if err != nil {
				t.Fatal(err)
			}
			sameAsBuild(t, p, skip, cp)
		}
		if b := s.Stats().Builds; b != 1 {
			t.Fatalf("%s: Builds = %d after ascending windows, want 1", p.Name, b)
		}
		key.Skip = 31_000
		cp, err := s.Window(p, key)
		if err != nil {
			t.Fatal(err)
		}
		sameAsBuild(t, p, key.Skip, cp)
		if b := s.Stats().Builds; b != 2 {
			t.Fatalf("%s: Builds = %d after a window behind the walk, want 2", p.Name, b)
		}
		// The kept walker stayed at the furthest window: going on from
		// there needs no third pass.
		key.Skip = 260_000
		if _, err := s.Window(p, key); err != nil {
			t.Fatal(err)
		}
		if b := s.Stats().Builds; b != 2 {
			t.Fatalf("%s: Builds = %d after extending past the furthest window, want 2", p.Name, b)
		}
	}
}

// TestStoreWindowsConcurrent: goroutines asking one store for the same
// ascending windows share one walk and get the same checkpoint instances.
// Run it under -race.
func TestStoreWindowsConcurrent(t *testing.T) {
	p := buildProg(t, "mcf", 1<<40)
	s := NewStore("")
	const callers = 8
	skips := []uint64{5_000, 10_003, 10_004, 20_000}
	got := make([][]*Checkpoint, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := range got {
		go func() {
			defer wg.Done()
			key := KeyFor(p, 0, mem.DefaultHierarchyConfig(), true)
			for _, skip := range skips {
				key.Skip = skip
				cp, err := s.Window(p, key)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = append(got[i], cp)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < callers; i++ {
		for k := range skips {
			if got[i][k] != got[0][k] {
				t.Fatalf("caller %d got a different checkpoint instance for window %d", i, k)
			}
		}
	}
	st := s.Stats()
	if st.Builds != 1 || st.MemHits != uint64((callers-1)*len(skips)) {
		t.Fatalf("store stats = %+v, want 1 build and %d memory hits", st, (callers-1)*len(skips))
	}
	for k, skip := range skips {
		sameAsBuild(t, p, skip, got[0][k])
	}
}

// TestStoreKeySeparatesWarmAndHierarchy: a checkpoint's key includes
// whether it is warm and the hierarchy it was warmed with, so neither a
// cold checkpoint nor one warmed with another cache geometry answers a
// warm request from memory.
func TestStoreKeySeparatesWarmAndHierarchy(t *testing.T) {
	p := buildProg(t, "gcc", 1<<40)
	hcfg := mem.DefaultHierarchyConfig()
	s := NewStore("")
	if _, err := s.Get(p, 10_000, hcfg, false); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Get(p, 10_000, hcfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hier == nil || warm.Pred == nil {
		t.Fatal("warm Get after a cold Get of the same prefix returned the cold checkpoint")
	}

	small := hcfg
	small.L1D.SizeBytes = 16 << 10
	cp, err := s.Get(p, 10_000, small, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Hier.L1D.Config().SizeBytes; got != small.L1D.SizeBytes {
		t.Fatalf("Get for a %d-byte L1D returned a checkpoint warmed with %d bytes", small.L1D.SizeBytes, got)
	}
	if st := s.Stats(); st.Builds != 3 || st.MemHits != 0 {
		t.Fatalf("store stats = %+v, want 3 builds and no memory hit", st)
	}

	// Kept walkers are keyed the same way: a window for the small L1D
	// does not extend the default-geometry walk.
	key := KeyFor(p, 5_000, hcfg, true)
	if _, err := s.Window(p, key); err != nil {
		t.Fatal(err)
	}
	key.Hier, key.Skip = small, 6_000
	cp, err = s.Window(p, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Hier.L1D.Config().SizeBytes; got != small.L1D.SizeBytes {
		t.Fatalf("window for a %d-byte L1D came from a walk warmed with %d bytes", small.L1D.SizeBytes, got)
	}
	if b := s.Stats().Builds; b != 5 {
		t.Fatalf("Builds = %d, want 5: one walk per hierarchy config", b)
	}
}

// TestStoreRelease: Release drops a workload's checkpoints and kept
// walkers and nothing else.
func TestStoreRelease(t *testing.T) {
	hcfg := mem.DefaultHierarchyConfig()
	s := NewStore("")
	for _, name := range []string{"mcf", "gcc"} {
		p := buildProg(t, name, 1<<40)
		if _, err := s.Window(p, KeyFor(p, 5_000, hcfg, true)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(p, 7_000, hcfg, true); err != nil {
			t.Fatal(err)
		}
	}
	s.Release("mcf")
	if s.Holds("mcf") {
		t.Error("store still holds mcf after Release")
	}
	if !s.Holds("gcc") {
		t.Error("Release of mcf dropped gcc")
	}
}

// FuzzWindowWalkMatchesBuild: for a kernel and two to four ascending
// window starts, each window the store's kept walker produces equals a
// fresh Build at that start, and the whole sequence is one pass.
func FuzzWindowWalkMatchesBuild(f *testing.F) {
	all := workloads.All()
	progs := make([]*isa.Program, len(all))
	hcfg := mem.DefaultHierarchyConfig()
	f.Fuzz(func(t *testing.T, kernel, n uint8, d1, d2, d3, d4 uint16) {
		k := int(kernel) % len(all)
		if progs[k] == nil {
			progs[k] = all[k].Build(1 << 40)
		}
		p := progs[k]
		s := NewStore("")
		key := KeyFor(p, 0, hcfg, true)
		for _, d := range []uint16{d1, d2, d3, d4}[:2+n%3] {
			key.Skip += uint64(d) % 50_001
			cp, err := s.Window(p, key)
			if err != nil {
				t.Fatal(err)
			}
			sameAsBuild(t, p, key.Skip, cp)
		}
		if b := s.Stats().Builds; b != 1 {
			t.Fatalf("%s: Builds = %d for ascending windows, want 1", p.Name, b)
		}
	})
}
