package mem

// Clone returns a deep copy of the cache: geometry, the set index and
// line metadata, LRU stamps, and counters. The OnFill/OnEvict hooks are
// deliberately NOT copied — they are per-attachment state (the shadow L1
// installs them when a policy attaches to a core), not part of the
// warmable contents.
func (c *Cache) Clone() *Cache {
	return &Cache{
		cfg:       c.cfg,
		sets:      c.sets,
		lineShift: c.lineShift,
		setShift:  c.setShift,
		setMask:   c.setMask,
		end:       append([]int32(nil), c.end...),
		lines:     append([]line(nil), c.lines...),
		stamp:     c.stamp,
		stats:     c.stats,
	}
}

// ResetStats zeroes the counters without touching line state, so a warmed
// cache starts a measured region with clean statistics.
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

// Clone returns a deep copy of the TLB: entries, recency order, and
// counters.
func (t *TLB) Clone() *TLB {
	out := &TLB{
		entries:   t.entries,
		pageShift: t.pageShift,
		walkCost:  t.walkCost,
		idx:       make(map[uint64]int, len(t.idx)),
		pages:     append([]uint64(nil), t.pages...),
		prev:      append([]int(nil), t.prev...),
		next:      append([]int(nil), t.next...),
		head:      t.head,
		tail:      t.tail,
		used:      t.used,
		Stats:     t.Stats,
	}
	for p, s := range t.idx {
		out.idx[p] = s
	}
	return out
}

// Clone returns a deep copy of the hierarchy's warmable state: every cache
// level and the TLB, with their contents, LRU stamps, and counters. The
// MSHR table is NOT carried over — outstanding-miss completion cycles are
// meaningless across a clock-domain change (a restored core restarts at
// cycle 0) — and neither are cache hooks (see Cache.Clone).
func (h *Hierarchy) Clone() *Hierarchy {
	out := &Hierarchy{
		cfg:   h.cfg,
		L1I:   h.L1I.Clone(),
		L1D:   h.L1D.Clone(),
		L2:    h.L2.Clone(),
		L3:    h.L3.Clone(),
		DTLB:  h.DTLB.Clone(),
		mshr:  make([]mshrEntry, 0, h.cfg.MSHRs),
		Stats: h.Stats,
	}
	out.dropInFlight()
	return out
}

// ResetStats zeroes every counter in the hierarchy — its own, each cache
// level's, and the TLB's — without touching cache or TLB contents. Called
// on a functionally-warmed hierarchy before the detailed region so the
// measured statistics cover only detailed execution.
func (h *Hierarchy) ResetStats() {
	h.Stats = HierarchyStats{}
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.DTLB.Stats = TLBStats{}
}
