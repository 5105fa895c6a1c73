package mem

// TLB is a fully associative translation lookaside buffer with exact LRU
// replacement. The simulator runs a flat (identity) address space, so the
// TLB exists purely for timing: misses cost a page-walk latency, and a
// load/store that is delayed by a protection policy does not perform its
// TLB lookup (TLB fills are an address-dependent covert channel).
//
// Recency is an intrusive doubly-linked list over a fixed slot array
// (head = MRU, tail = LRU) with a map from page number to slot. This is
// behaviorally identical to timestamp LRU — every access is a distinct
// recency event, so the eviction order matches — but a hit is a map read
// plus pointer splices instead of a map write, a miss evicts in O(1)
// instead of scanning for the oldest stamp, and the repeated-same-page
// hit (the common case during functional warming) is a single head
// check. Every data access in hierarchy warming translates, and a hit on
// a non-MRU page still costs a map read; see BenchmarkWarmingWalker.
type TLB struct {
	entries   int
	pageShift uint
	walkCost  uint64

	idx        map[uint64]int
	pages      []uint64
	prev, next []int
	head, tail int // slot indices, -1 when empty
	used       int

	Stats TLBStats
}

// TLBStats counts TLB events.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count, page size, and page-walk
// latency in cycles.
func NewTLB(entries int, pageBytes int, walkCycles uint64) *TLB {
	shift := uint(0)
	for s := pageBytes; s > 1; s >>= 1 {
		shift++
	}
	return &TLB{
		entries:   entries,
		pageShift: shift,
		walkCost:  walkCycles,
		idx:       make(map[uint64]int, entries),
		pages:     make([]uint64, entries),
		prev:      make([]int, entries),
		next:      make([]int, entries),
		head:      -1,
		tail:      -1,
	}
}

// moveToFront makes slot s the MRU entry.
func (t *TLB) moveToFront(s int) {
	if t.head == s {
		return
	}
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	}
	if n >= 0 {
		t.prev[n] = p
	}
	if t.tail == s {
		t.tail = p
	}
	t.prev[s] = -1
	t.next[s] = t.head
	if t.head >= 0 {
		t.prev[t.head] = s
	}
	t.head = s
	if t.tail < 0 {
		t.tail = s
	}
}

// Translate performs a lookup for addr and returns the added latency
// (0 on hit, walk cost on miss). The entry is installed on miss.
func (t *TLB) Translate(addr uint64) uint64 {
	t.Stats.Accesses++
	page := addr >> t.pageShift
	if t.head >= 0 && t.pages[t.head] == page {
		return 0 // already MRU: nothing to reorder
	}
	if s, ok := t.idx[page]; ok {
		t.moveToFront(s)
		return 0
	}
	t.Stats.Misses++
	var s int
	if t.used >= t.entries {
		s = t.tail
		delete(t.idx, t.pages[s])
	} else {
		s = t.used
		t.used++
		if t.head < 0 {
			t.prev[s] = -1
			t.next[s] = -1
			t.head, t.tail = s, s
			t.pages[s] = page
			t.idx[page] = s
			return t.walkCost
		}
		// Link as a fresh tail so moveToFront splices uniformly.
		t.prev[s] = t.tail
		t.next[s] = -1
		t.next[t.tail] = s
		t.tail = s
	}
	t.pages[s] = page
	t.idx[page] = s
	t.moveToFront(s)
	return t.walkCost
}

// Present reports whether addr's page is cached, without side effects.
func (t *TLB) Present(addr uint64) bool {
	_, ok := t.idx[addr>>t.pageShift]
	return ok
}
