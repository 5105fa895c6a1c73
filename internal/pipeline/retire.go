package pipeline

import "spt/internal/isa"

// retire commits completed instructions in program order. Stores write the
// functional memory and the data cache here (TSO: memory becomes visible at
// retirement). Retiring pops the ROB ring head; the slot is recycled by a
// later rename, so h stays readable for the rest of this stage.
func (c *Core) retire() {
	for n := 0; n < c.Cfg.RetireWidth; n++ {
		if c.robLen == 0 {
			return
		}
		h := c.robAt(0)
		if !h.Done || h.Violation {
			if (h.IsLd || h.IsSt) && !h.Done {
				c.Stats.RetireStallsMemory++
			}
			return
		}
		if h.IsCF && !h.Resolved {
			return
		}

		if h.IsLd && h.Oblivious {
			// Replay the suppressed demand access now that it is
			// non-speculative (warms the cache like a normal load would).
			if c.Observer != nil {
				c.Observer('R', c.cycle, h.EffAddr&^63)
			}
			c.Hier.AccessData(c.cycle, h.EffAddr, false)
		}
		if h.IsSt {
			if c.Observer != nil {
				c.Observer('W', c.cycle, h.EffAddr&^63)
			}
			c.Mem.Write(h.EffAddr, int(h.MemSz), h.Val)
			// The retirement write updates cache state; a store buffer
			// absorbs the latency, so retire does not stall on it.
			c.Hier.AccessData(c.cycle, h.EffAddr, true)
		}

		h.Retired = true
		c.active = true
		if c.Tracer != nil {
			c.Tracer.Event(c.cycle, h, "retire")
		}
		c.robPopHead()
		if h.IsLd {
			c.lqPopHead()
		}
		if h.IsSt {
			c.sqPopHead()
		}
		if h.Dst != NoReg && h.OldDst != NoReg {
			c.freeList = append(c.freeList, h.OldDst)
		}
		c.Stats.Retired++
		if c.Pol != nil {
			c.Pol.OnRetire(h)
		}
		if h.Ins.Op == isa.HALT {
			c.finished = true
			return
		}
	}
}
