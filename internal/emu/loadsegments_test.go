package emu

import (
	"bytes"
	"math/rand"
	"testing"

	"spt/internal/isa"
)

// loadBytewise is LoadSegments one SetByte per byte: the reference the
// page-at-a-time copy is held to.
func loadBytewise(m *Memory, segs []isa.Segment) {
	for _, s := range segs {
		for i, b := range s.Bytes {
			m.SetByte(s.Addr+uint64(i), b)
		}
	}
}

// randomSegments draws up to six segments around the first few page
// boundaries (one may wrap past the top of the address space): empty ones,
// ones that straddle pages, and ones that overlap each other.
func randomSegments(rng *rand.Rand) []isa.Segment {
	segs := make([]isa.Segment, rng.Intn(7))
	for i := range segs {
		addr := uint64(rng.Intn(4))*pageSize + uint64(rng.Intn(pageSize)) - pageSize/2
		var size int
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			size = 1 + rng.Intn(16)
		default:
			size = 1 + rng.Intn(3*pageSize)
		}
		b := make([]byte, size)
		rng.Read(b)
		segs[i] = isa.Segment{Addr: addr, Bytes: b}
	}
	return segs
}

// sameContents reports whether a and b hold the same pages with the same
// bytes.
func sameContents(a, b *Memory) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for pn, p := range a.pages {
		q, ok := b.pages[pn]
		if !ok || *p != *q {
			return false
		}
	}
	return true
}

// TestLoadSegmentsMatchesBytewise loads random segment lists into a fresh
// memory, and into one whose pages a live snapshot has frozen, both page
// at a time and byte by byte: every byte and the footprint must match,
// and the snapshot must not change.
func TestLoadSegmentsMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(129))
	for trial := 0; trial < 500; trial++ {
		prior, segs := randomSegments(rng), randomSegments(rng)
		frozen := trial%2 == 1
		got, ref := NewMemory(), NewMemory()
		var snap *Snapshot
		var before []byte
		if frozen {
			loadBytewise(got, prior)
			loadBytewise(ref, prior)
			snap = &Snapshot{pages: got.freeze()}
			var err error
			if before, err = snap.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		got.LoadSegments(segs)
		loadBytewise(ref, segs)
		if !sameContents(got, ref) || got.Footprint() != ref.Footprint() {
			t.Fatalf("trial %d (frozen %v): memory after LoadSegments differs from the byte-wise load (%d pages, reference %d)",
				trial, frozen, got.Footprint(), ref.Footprint())
		}
		if frozen {
			after, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("trial %d: LoadSegments wrote through a frozen page into the snapshot", trial)
			}
		}
	}
}
