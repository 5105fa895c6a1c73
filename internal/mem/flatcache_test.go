package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// flatCache is the reference for Cache: the original layout, one flat
// sets*ways line array allocated and zeroed up front. Cache gives a set
// its ways only on the first Fill into it; TestCacheMatchesFlatReference
// drives both with the same random operations and requires identical
// results, statistics and hook sequences.
type flatCache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	lines     []line // sets*ways, row-major by set
	stamp     uint64
	stats     CacheStats

	OnFill  func(lineAddr uint64)
	OnEvict func(lineAddr uint64)
}

func newFlatCache(cfg CacheConfig) *flatCache {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c := &flatCache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		lines:   make([]line, sets*cfg.Ways),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	for s := sets; s > 1; s >>= 1 {
		c.setShift++
	}
	return c
}

func (c *flatCache) Stats() CacheStats { return c.stats }

func (c *flatCache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *flatCache) setOf(addr uint64) int { return int((addr >> c.lineShift) & c.setMask) }

func (c *flatCache) tagOf(addr uint64) uint64 { return (addr >> c.lineShift) >> c.setShift }

func (c *flatCache) slot(set, way int) *line { return &c.lines[set*c.cfg.Ways+way] }

func (c *flatCache) locate(addr uint64) (set, way int, ok bool) {
	set = c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			return set, w, true
		}
	}
	return 0, 0, false
}

func (c *flatCache) touch(set, way int) {
	c.stamp++
	c.stats.Accesses++
	c.stats.Hits++
	c.slot(set, way).lru = c.stamp
}

func (c *flatCache) Probe(addr uint64) (MESI, bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	ls := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ls {
		if ls[w].state != Invalid && ls[w].tag == tag {
			return ls[w].state, true
		}
	}
	return Invalid, false
}

func (c *flatCache) Access(addr uint64, write bool) bool {
	c.stamp++
	c.stats.Accesses++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	ls := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ls {
		l := &ls[w]
		if l.state != Invalid && l.tag == tag {
			l.lru = c.stamp
			if write {
				l.state = Modified
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *flatCache) Fill(addr uint64, state MESI) (victimAddr uint64, writeback bool) {
	c.stamp++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			l.state = state
			l.lru = c.stamp
			return 0, false
		}
	}
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state == Invalid {
			victim = w
			break
		}
		if l.lru < c.slot(set, victim).lru {
			victim = w
		}
	}
	v := c.slot(set, victim)
	if v.state != Invalid {
		victimAddr = c.reconstructAddr(set, v.tag)
		writeback = v.state == Modified
		c.stats.Evictions++
		if writeback {
			c.stats.Writebacks++
		}
		if c.OnEvict != nil {
			c.OnEvict(victimAddr)
		}
	}
	*v = line{tag: tag, state: state, lru: c.stamp}
	if c.OnFill != nil {
		c.OnFill(c.LineAddr(addr))
	}
	return victimAddr, writeback
}

func (c *flatCache) Invalidate(addr uint64) (wasDirty bool, wasPresent bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			wasDirty = l.state == Modified
			l.state = Invalid
			if c.OnEvict != nil {
				c.OnEvict(c.LineAddr(addr))
			}
			return wasDirty, true
		}
	}
	return false, false
}

func (c *flatCache) Downgrade(addr uint64) (wasDirty bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			wasDirty = l.state == Modified
			l.state = Shared
			return wasDirty
		}
	}
	return false
}

func (c *flatCache) reconstructAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.lineShift
}

func (c *flatCache) FlushAll() {
	for i := range c.lines {
		if c.lines[i].state != Invalid && c.OnEvict != nil {
			set := i / c.cfg.Ways
			c.OnEvict(c.reconstructAddr(set, c.lines[i].tag))
		}
		c.lines[i] = line{}
	}
}

func (c *flatCache) Clone() *flatCache {
	out := *c
	out.lines = append([]line(nil), c.lines...)
	out.OnFill, out.OnEvict = nil, nil
	return &out
}

// TestCacheMatchesFlatReference drives Cache and flatCache with the same
// random operations at the Table-1 L1I, L1D and L3 geometries and
// requires every return value, the counters after every operation, and
// the OnFill/OnEvict call sequences to match. Half of the addresses fall
// in a few hot sets with more tags than ways (evictions, write-backs,
// refills of invalidated ways); the rest are spread over the whole
// address space, so most of them land in sets that were never filled.
// Mid-sequence, both caches are cloned; the originals run on, then the
// clones run a sequence of their own, which fails if a clone shares line
// storage with its original.
func TestCacheMatchesFlatReference(t *testing.T) {
	hc := DefaultHierarchyConfig()
	for i, cfg := range []CacheConfig{hc.L1I, hc.L1D, hc.L3} {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			sets := uint64(cfg.SizeBytes / (cfg.Ways * cfg.LineBytes))
			hot := make([]uint64, 6)
			for k := range hot {
				hot[k] = uint64(rng.Int63n(int64(sets)))
			}
			addr := func() uint64 {
				off := uint64(rng.Intn(cfg.LineBytes))
				if rng.Intn(2) == 0 {
					tag := uint64(rng.Intn(2*cfg.Ways + 3))
					return (tag*sets+hot[rng.Intn(len(hot))])*uint64(cfg.LineBytes) + off
				}
				return uint64(rng.Int63n(1<<34))&^uint64(cfg.LineBytes-1) + off
			}

			var gotLog, wantLog []string // hook calls of the current operation
			calls := 0
			attach := func(g *Cache, w *flatCache) {
				g.OnFill = func(a uint64) { gotLog = append(gotLog, fmt.Sprintf("fill %#x", a)) }
				g.OnEvict = func(a uint64) { gotLog = append(gotLog, fmt.Sprintf("evict %#x", a)) }
				w.OnFill = func(a uint64) { wantLog = append(wantLog, fmt.Sprintf("fill %#x", a)) }
				w.OnEvict = func(a uint64) { wantLog = append(wantLog, fmt.Sprintf("evict %#x", a)) }
			}
			run := func(phase string, g *Cache, w *flatCache, steps int) {
				t.Helper()
				for step := 0; step < steps; step++ {
					a := addr()
					var op string
					var got, want any
					switch k := rng.Intn(100); {
					case k < 25:
						write := rng.Intn(3) == 0
						op = fmt.Sprintf("Access(%#x, %v)", a, write)
						got, want = g.Access(a, write), w.Access(a, write)
					case k < 55:
						st := MESI(rng.Intn(4))
						op = fmt.Sprintf("Fill(%#x, %v)", a, st)
						gv, gw := g.Fill(a, st)
						wv, ww := w.Fill(a, st)
						got, want = [2]any{gv, gw}, [2]any{wv, ww}
					case k < 65:
						op = fmt.Sprintf("Invalidate(%#x)", a)
						gd, gp := g.Invalidate(a)
						wd, wp := w.Invalidate(a)
						got, want = [2]bool{gd, gp}, [2]bool{wd, wp}
					case k < 72:
						op = fmt.Sprintf("Downgrade(%#x)", a)
						got, want = g.Downgrade(a), w.Downgrade(a)
					case k < 84:
						op = fmt.Sprintf("Probe(%#x)", a)
						gs, gok := g.Probe(a)
						ws, wok := w.Probe(a)
						got, want = [2]any{gs, gok}, [2]any{ws, wok}
					case k < 99:
						op = fmt.Sprintf("locate+touch(%#x)", a)
						gs, gw, gok := g.locate(a)
						ws, ww, wok := w.locate(a)
						if gok {
							g.touch(gs, gw)
						}
						if wok {
							w.touch(ws, ww)
						}
						got, want = [3]any{gs, gw, gok}, [3]any{ws, ww, wok}
					default:
						op = "FlushAll()"
						g.FlushAll()
						w.FlushAll()
					}
					if got != want {
						t.Fatalf("%s step %d: %s = %v, reference %v", phase, step, op, got, want)
					}
					if g.Stats() != w.Stats() {
						t.Fatalf("%s step %d: after %s stats %+v, reference %+v", phase, step, op, g.Stats(), w.Stats())
					}
					if !slices.Equal(gotLog, wantLog) {
						t.Fatalf("%s step %d: %s calls hooks %q, reference %q", phase, step, op, gotLog, wantLog)
					}
					calls += len(gotLog)
					gotLog, wantLog = gotLog[:0], wantLog[:0]
				}
			}

			g, w := NewCache(cfg), newFlatCache(cfg)
			attach(g, w)
			run("original", g, w, 20_000)
			gc, wc := g.Clone(), w.Clone()
			run("original after clone", g, w, 10_000)
			attach(gc, wc)
			run("clone", gc, wc, 20_000)
			if calls == 0 {
				t.Fatal("no hook ran")
			}
		})
	}
}
