package emu

import (
	"testing"
	"testing/quick"

	"spt/internal/isa"
	"spt/internal/workloads"
)

// TestSnapshotIsolatesLaterWrites is the copy-on-write contract: writes
// after a snapshot — through the write-path page cache included — must not
// leak into the snapshot, and writes through a restored memory must not
// leak back into it either.
func TestSnapshotIsolatesLaterWrites(t *testing.T) {
	e := New(&isa.Program{Code: []isa.Instruction{{Op: isa.HALT}}})
	m := e.State.Mem
	m.SetByte(0x10, 1)
	m.SetByte(0x10, 1) // second write goes through the cached-page fast path

	s := e.Snapshot()
	m.SetByte(0x10, 2) // must clone the frozen page, not mutate it

	m2 := s.NewMemory()
	if got := m2.ByteAt(0x10); got != 1 {
		t.Fatalf("snapshot saw a post-snapshot write: byte = %d, want 1", got)
	}
	m2.SetByte(0x10, 3)
	if got := s.NewMemory().ByteAt(0x10); got != 1 {
		t.Fatalf("restored-memory write leaked into the snapshot: byte = %d, want 1", got)
	}
	if got := m.ByteAt(0x10); got != 2 {
		t.Fatalf("live memory lost its own write: byte = %d, want 2", got)
	}
}

// TestInvalidateDropsStalePagePointers is the regression test for the
// page-cache staleness bug: before Invalidate existed, replacing a page in
// the page map left the direct-mapped caches pointing at the old page, so
// reads served dropped data. Snapshot restore replaces pages wholesale and
// depends on Invalidate for correctness.
func TestInvalidateDropsStalePagePointers(t *testing.T) {
	m := NewMemory()
	m.SetByte(0x40, 7) // installs the page in both caches

	repl := new(page)
	repl[0x40] = 9
	for pn := range m.pages {
		m.pages[pn] = repl
	}
	if got := m.ByteAt(0x40); got != 7 {
		t.Fatalf("precondition: expected the stale cached page to serve 7, got %d", got)
	}
	m.Invalidate()
	if got := m.ByteAt(0x40); got != 9 {
		t.Fatalf("after Invalidate: byte = %d, want 9 (cache still stale)", got)
	}
}

// TestSnapshotResumeMatchesUninterrupted is the snapshot round-trip
// property: for random programs, running k steps, snapshotting, and
// resuming from the snapshot reaches exactly the state an uninterrupted
// run reaches — registers, PC, retirement count, halt flag, and memory.
// k is drawn below the uninterrupted run's retired count, so every case
// snapshots a machine that is still running.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	f := func(seed int64, kRaw uint16) bool {
		p := workloads.RandomProgram(seed, 40)
		const budget = 2000

		ref := New(p)
		n, err := ref.Run(budget)
		if err != nil {
			return true // programs that trap are outside this property
		}
		k := uint64(kRaw) % n

		e := New(p)
		if _, err := e.Run(k); err != nil {
			return true
		}
		snap := e.Snapshot()
		if snap.Halted {
			t.Logf("seed %d k %d: snapshot of a halted machine", seed, k)
			return false
		}
		if _, err := e.Run(budget - k); err != nil { // snapshotted machine keeps going
			return true
		}

		r := NewFromSnapshot(p, snap)
		if _, err := r.Run(budget - k); err != nil {
			t.Logf("seed %d k %d: resume error", seed, k)
			return false
		}
		for _, pair := range [][2]*State{{&ref.State, &e.State}, {&ref.State, &r.State}} {
			a, b := pair[0], pair[1]
			if a.PC != b.PC || a.Regs != b.Regs || a.Retired != b.Retired || a.Halted != b.Halted {
				t.Logf("seed %d k %d: arch state diverged", seed, k)
				return false
			}
		}
		// Compare memory over every page either machine touched.
		seen := map[uint64]bool{}
		for pn := range ref.State.Mem.pages {
			seen[pn] = true
		}
		for pn := range r.State.Mem.pages {
			seen[pn] = true
		}
		for pn := range seen {
			base := pn << pageShift
			for off := uint64(0); off < pageSize; off += 8 {
				if ref.State.Mem.Read(base+off, 8) != r.State.Mem.Read(base+off, 8) {
					t.Logf("seed %d k %d: memory diverged at %#x", seed, k, base+off)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMarshalRoundTrip(t *testing.T) {
	p := workloads.RandomProgram(7, 40)
	e := New(p)
	if _, err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	b, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.PC != snap.PC || back.Regs != snap.Regs || back.Retired != snap.Retired || back.Halted != snap.Halted {
		t.Fatal("unmarshaled snapshot's architectural fields differ")
	}
	h1, err1 := snap.Hash()
	h2, err2 := back.Hash()
	if err1 != nil || err2 != nil || h1 != h2 {
		t.Fatalf("hash not stable across marshal round trip: %x vs %x", h1, h2)
	}

	// Resuming from the decoded snapshot behaves identically.
	a, b2 := NewFromSnapshot(p, snap), NewFromSnapshot(p, back)
	if _, err := a.Run(500); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Run(500); err != nil {
		t.Fatal(err)
	}
	if a.State.PC != b2.State.PC || a.State.Regs != b2.State.Regs || a.State.Retired != b2.State.Retired {
		t.Fatal("decoded snapshot resumed differently")
	}

	// Corruption is detected, not silently accepted.
	if _, err := UnmarshalSnapshot(b[:len(b)-1]); err == nil {
		t.Fatal("truncated snapshot unmarshaled without error")
	}
	if _, err := UnmarshalSnapshot(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing garbage unmarshaled without error")
	}
	if _, err := UnmarshalSnapshot([]byte("NOTASNAP")); err == nil {
		t.Fatal("bad magic unmarshaled without error")
	}
}

// TestSnapshotMidLoopKeepsSlotsCoherent pins the epoch protocol that
// guards the block engine's per-µop translation slots. A loop loads and
// stores one page; the machine is snapshotted mid-loop at several points
// and keeps running to the end. A snapshot must expire every slot, or a
// store slot keeps writing into the page the snapshot now shares; a
// copy-on-write clone must expire them too, or a load slot keeps reading
// the frozen original after the store moved to the clone.
func TestSnapshotMidLoopKeepsSlotsCoherent(t *testing.T) {
	const base = 0x10000
	p := &isa.Program{
		Code: []isa.Instruction{
			{Op: isa.MOVI, Rd: 1, Imm: base},
			{Op: isa.MOVI, Rd: 3, Imm: 1000},
			{Op: isa.LD, Rd: 4, Rs1: 1},            // loop: r4 = mem[base]
			{Op: isa.ADD, Rd: 9, Rs1: 9, Rs2: 4},   // r9 += r4
			{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1},  // r2++
			{Op: isa.ST, Rs1: 1, Rs2: 2},           // mem[base] = r2
			{Op: isa.BLT, Rs1: 2, Rs2: 3, Imm: -4}, // while r2 < 1000
			{Op: isa.HALT},
		},
		Data: []isa.Segment{{Addr: base, Bytes: make([]byte, 8)}},
	}
	ref := New(p)
	if _, err := stepRun(ref, 1<<20, nil); err != nil || !ref.State.Halted {
		t.Fatalf("reference did not halt: %v", err)
	}
	if got := ref.State.Regs[9]; got != 499500 {
		t.Fatalf("reference r9 = %d, want 499500", got)
	}
	refHash := hashOf(ref.Snapshot())

	e := New(p)
	type taken struct {
		snap *Snapshot
		hash [32]byte
		word uint64
	}
	var snaps []taken
	for _, k := range []uint64{1, 3, 17, 501, 2000, 3333} {
		if _, err := e.Run(k - e.State.Retired); err != nil {
			t.Fatal(err)
		}
		s := e.Snapshot()
		snaps = append(snaps, taken{s, hashOf(s), s.NewMemory().Read(base, 8)})
	}
	if _, err := e.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !sameState(&e.State, &ref.State) {
		t.Fatalf("machine snapshotted mid-loop ended with r9 = %d, pc %d, retired %d; reference r9 = %d, pc %d, retired %d",
			e.State.Regs[9], e.State.PC, e.State.Retired, ref.State.Regs[9], ref.State.PC, ref.State.Retired)
	}
	if hashOf(e.Snapshot()) != refHash {
		t.Fatal("memory of the machine snapshotted mid-loop differs from the reference")
	}
	for _, s := range snaps {
		if hashOf(s.snap) != s.hash {
			t.Fatalf("snapshot at %d changed after the machine ran on: word %d, now %d",
				s.snap.Retired, s.word, s.snap.NewMemory().Read(base, 8))
		}
		r := NewFromSnapshot(p, s.snap)
		if _, err := r.Run(1 << 20); err != nil {
			t.Fatal(err)
		}
		if !sameState(&r.State, &ref.State) {
			t.Fatalf("machine restored at %d ended with r9 = %d, reference %d", s.snap.Retired, r.State.Regs[9], ref.State.Regs[9])
		}
		if hashOf(r.Snapshot()) != refHash {
			t.Fatalf("memory of the machine restored at %d differs from the reference", s.snap.Retired)
		}
	}
}
