package mem

// HierarchyConfig describes the full memory system (paper Table 1).
type HierarchyConfig struct {
	L1I, L1D, L2, L3 CacheConfig
	MSHRs            int
	// DRAMCycles is the DRAM access latency added after an L3 miss
	// (50 ns at the simulated 2 GHz clock = 100 cycles).
	DRAMCycles     uint64
	Mesh           Mesh
	CoreNode       int
	TLBEntries     int
	PageBytes      int
	PageWalkCycles uint64
}

// DefaultHierarchyConfig returns the paper's Table 1 memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:            CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, LatencyCycles: 2},
		L1D:            CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 2},
		L2:             CacheConfig{Name: "L2", SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, LatencyCycles: 20},
		L3:             CacheConfig{Name: "L3", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, LatencyCycles: 40},
		MSHRs:          16,
		DRAMCycles:     100,
		Mesh:           DefaultMesh(),
		CoreNode:       0,
		TLBEntries:     64,
		PageBytes:      4 << 10,
		PageWalkCycles: 50,
	}
}

// HierarchyStats aggregates memory-system counters.
type HierarchyStats struct {
	DataAccesses    uint64
	InstrAccesses   uint64
	DRAMAccesses    uint64
	MSHRStalls      uint64
	MSHRMerges      uint64
	InstrPrefetches uint64
}

// Hierarchy is the single-core memory system timing model. Latency is
// computed synchronously: an access returns the cycle at which its data is
// available. Outstanding misses occupy MSHRs until their completion cycle;
// an access that needs a new MSHR when all are busy reports a structural
// stall and must be retried.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	L3   *Cache
	DTLB *TLB

	// mshr tracks outstanding misses as (line address, completion cycle)
	// pairs. A flat array beats a map here: there are at most cfg.MSHRs
	// (16) entries, every data access expires and searches them, and
	// mshrMin lets the expiry scan skip entirely while no entry is due —
	// the common case during functional warming, where the pseudo-clock
	// advances one tick per instruction.
	mshr    []mshrEntry
	mshrMin uint64 // earliest completion cycle in mshr; ^0 when empty

	// iMemo lets a fetch from a recently fetched line skip the L1I tag
	// scan and the next-line prefetch probe. It is direct-mapped by line
	// number, so a loop that straddles a line boundary keeps both of its
	// lines. An entry holds a line address plus one (zero = empty) and
	// the L1I (set, way) holding that line, and is armed only when both
	// that line and the next are resident after a fetch. For such a line
	// the full path would hit, find the next line present and change
	// nothing but the LRU stamp and hit counters, so a memo hit is a
	// touch plus a latency constant. Only AccessInstr's fills and
	// FlushAll change the L1I; both empty the whole table, so an entry
	// cannot go stale in between. Clone drops the table (struct literal),
	// which only costs the first fetch from each line after a restore.
	iMemo [iMemoEntries]iMemoEntry

	Stats HierarchyStats
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg:     cfg,
		L1I:     NewCache(cfg.L1I),
		L1D:     NewCache(cfg.L1D),
		L2:      NewCache(cfg.L2),
		L3:      NewCache(cfg.L3),
		DTLB:    NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.PageWalkCycles),
		mshr:    make([]mshrEntry, 0, cfg.MSHRs),
		mshrMin: ^uint64(0),
	}
}

// iMemoEntries is the fetch memo's size. Over the 19 Figure 7 kernels'
// 1M-instruction warm walks (19 M fetches), 16 entries leave 0.94 M
// fetches on the full path, against 5.68 M for one entry; 32 or more
// entries leave 0.75 M.
const iMemoEntries = 16

type iMemoEntry struct {
	line     uint64 // line address + 1; 0 = empty
	set, way int32
}

type mshrEntry struct {
	line  uint64
	ready uint64
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

func (h *Hierarchy) expireMSHRs(now uint64) {
	if now < h.mshrMin {
		return
	}
	min := ^uint64(0)
	out := h.mshr[:0]
	for _, e := range h.mshr {
		if e.ready > now {
			if e.ready < min {
				min = e.ready
			}
			out = append(out, e)
		}
	}
	h.mshr = out
	h.mshrMin = min
}

// mshrLookup returns the completion cycle of an in-flight miss to
// lineAddr, if any.
func (h *Hierarchy) mshrLookup(lineAddr uint64) (uint64, bool) {
	for i := range h.mshr {
		if h.mshr[i].line == lineAddr {
			return h.mshr[i].ready, true
		}
	}
	return 0, false
}

// AccessData performs a data access at cycle now. It returns the cycle the
// access completes and ok=false if the access could not start because all
// MSHRs are busy (the caller must retry). The TLB translation latency is
// included; protection policies must only call this once the access is
// allowed to become visible.
func (h *Hierarchy) AccessData(now uint64, addr uint64, write bool) (uint64, bool) {
	h.expireMSHRs(now)
	h.Stats.DataAccesses++

	start := now + h.DTLB.Translate(addr)
	lineAddr := h.L1D.LineAddr(addr)

	if h.L1D.Access(addr, write) {
		return start + h.cfg.L1D.LatencyCycles, true
	}
	// L1 miss: check for an in-flight miss to the same line.
	if ready, ok := h.mshrLookup(lineAddr); ok {
		h.Stats.MSHRMerges++
		done := ready
		if s := start + h.cfg.L1D.LatencyCycles; s > done {
			done = s
		}
		return done, true
	}
	if len(h.mshr) >= h.cfg.MSHRs {
		h.Stats.MSHRStalls++
		return 0, false
	}

	latency := h.cfg.L1D.LatencyCycles
	state := Exclusive
	if write {
		state = Modified
	}
	switch {
	case h.L2.Access(addr, write):
		latency += h.cfg.L2.LatencyCycles
	case h.L3.Access(addr, write):
		latency += h.cfg.L2.LatencyCycles + h.cfg.L3.LatencyCycles +
			h.cfg.Mesh.TransferCycles(h.cfg.CoreNode, lineAddr)
		h.fillL2(addr, write)
	default:
		latency += h.cfg.L2.LatencyCycles + h.cfg.L3.LatencyCycles +
			h.cfg.Mesh.TransferCycles(h.cfg.CoreNode, lineAddr) + h.cfg.DRAMCycles
		h.Stats.DRAMAccesses++
		h.L3.Fill(addr, Exclusive)
		h.fillL2(addr, write)
	}
	if victim, wb := h.L1D.Fill(addr, state); wb {
		// Dirty victim writes back into L2 (inclusive hierarchy).
		h.L2.Access(victim, true)
	}
	done := start + latency
	h.mshr = append(h.mshr, mshrEntry{line: lineAddr, ready: done})
	if done < h.mshrMin {
		h.mshrMin = done
	}
	return done, true
}

func (h *Hierarchy) fillL2(addr uint64, write bool) {
	if victim, wb := h.L2.Fill(addr, Exclusive); wb {
		h.L3.Access(victim, true)
	}
	_ = write
}

// AccessInstr performs an instruction fetch at cycle now and returns the
// completion cycle. Fetch misses do not consume data MSHRs.
func (h *Hierarchy) AccessInstr(now uint64, addr uint64) uint64 {
	line := h.L1I.LineAddr(addr)
	h.Stats.InstrAccesses++
	m := &h.iMemo[(line>>h.L1I.lineShift)%iMemoEntries]
	if m.line == line+1 {
		// The memo guarantees this line and the next are resident:
		// replay the hit bookkeeping and return. Byte-identical to the
		// path below for this case — the Access would hit, the Probe
		// would find the next line, and no state beyond the LRU stamp
		// and hit counters would change.
		h.L1I.touch(int(m.set), int(m.way))
		return now + h.cfg.L1I.LatencyCycles
	}
	latency := h.cfg.L1I.LatencyCycles
	hit := h.L1I.Access(addr, false)
	// Next-line prefetch: sequential fetch is the overwhelmingly common
	// case, so every access pulls the following line in behind it.
	next := line + uint64(h.cfg.L1I.LineBytes)
	if _, present := h.L1I.Probe(next); !present {
		h.Stats.InstrPrefetches++
		if !h.L2.Access(next, false) {
			h.fillL2(next, false)
		}
		h.L1I.Fill(next, Exclusive)
		h.iMemo = [iMemoEntries]iMemoEntry{}
	}
	if hit {
		h.armMemo(m, line, next)
		return now + latency
	}
	switch {
	case h.L2.Access(addr, false):
		latency += h.cfg.L2.LatencyCycles
	case h.L3.Access(addr, false):
		latency += h.cfg.L2.LatencyCycles + h.cfg.L3.LatencyCycles +
			h.cfg.Mesh.TransferCycles(h.cfg.CoreNode, h.L1I.LineAddr(addr))
		h.fillL2(addr, false)
	default:
		latency += h.cfg.L2.LatencyCycles + h.cfg.L3.LatencyCycles +
			h.cfg.Mesh.TransferCycles(h.cfg.CoreNode, h.L1I.LineAddr(addr)) + h.cfg.DRAMCycles
		h.Stats.DRAMAccesses++
		h.L3.Fill(addr, Exclusive)
		h.fillL2(addr, false)
	}
	h.L1I.Fill(addr, Exclusive)
	h.iMemo = [iMemoEntries]iMemoEntry{}
	h.armMemo(m, line, next)
	return now + latency
}

// armMemo arms line's memo entry m if both it and the following line
// ended the access resident (the prefetch fill can evict the fetched line,
// and the demand fill the prefetched one, in degenerate configurations,
// so residency is checked rather than assumed).
func (h *Hierarchy) armMemo(m *iMemoEntry, line, next uint64) {
	if set, way, ok := h.L1I.locate(line); ok {
		if _, present := h.L1I.Probe(next); present {
			*m = iMemoEntry{line: line + 1, set: int32(set), way: int32(way)}
		}
	}
}

// OutstandingMisses reports the number of busy MSHRs at cycle now.
func (h *Hierarchy) OutstandingMisses(now uint64) int {
	h.expireMSHRs(now)
	return len(h.mshr)
}

// FlushAll empties every cache level and the TLB contents are kept (the
// paper's receiver probes cache residency, not TLB state).
func (h *Hierarchy) FlushAll() {
	h.iMemo = [iMemoEntries]iMemoEntry{}
	h.L1I.FlushAll()
	h.L1D.FlushAll()
	h.L2.FlushAll()
	h.L3.FlushAll()
	h.mshr = h.mshr[:0]
	h.mshrMin = ^uint64(0)
}
