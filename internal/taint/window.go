package taint

import (
	"fmt"
	"math/bits"

	"spt/internal/pipeline"
)

// window is a tracking policy's mirror of the core's reorder buffer, kept
// from the hooks the policy already receives: OnRename pushes, OnRetire
// pops the head, OnSquash pops the tail. It makes untainting event-driven.
// For every physical register it keeps the set of in-flight slots that
// name it (as Dst, Src1 or Src2); a taint write to the register marks
// those slots dirty, and only dirty slots have their rules re-evaluated.
//
// Slots are ring positions; age order runs from head and wraps at the end.
// Every rule needs a destination register, so only instructions with one
// enter users and dirty. A slot's rules read its immutable fields and the
// taint of its three registers (STT's rule also reads a load's AtVP, whose
// change OnVP reports as a write to the load's Dst). Every taint write to
// a register goes through touch, except rename's write to its fresh Dst: a
// physical register is recycled only after every slot naming it has left
// the window, so the new slot, dirty from birth, is its only user. Hence a
// clean slot's last evaluation is still exact.
type window struct {
	slots   []*pipeline.DynInst
	head, n int
	words   int      // uint64 words per slot set
	users   []uint64 // words per physical register: the slots naming it
	dirty   []uint64 // slots whose registers' taint changed since evaluation
}

func newWindow(c *pipeline.Core) window {
	words := (c.Cfg.ROBSize + 63) / 64
	return window{
		slots: make([]*pipeline.DynInst, c.Cfg.ROBSize),
		words: words,
		users: make([]uint64, c.PhysRegCount()*words),
		dirty: make([]uint64, words),
	}
}

// push enters the newly renamed di as the youngest slot. A slot with a
// destination starts dirty.
func (w *window) push(di *pipeline.DynInst) {
	if w.n == len(w.slots) {
		panic(fmt.Sprintf("taint: rename of seq %d overflows the policy's ROB mirror", di.Seq))
	}
	slot := w.head + w.n
	if slot >= len(w.slots) {
		slot -= len(w.slots)
	}
	w.slots[slot] = di
	w.n++
	if di.Dst != pipeline.NoReg {
		w.setUsers(di, slot, true)
		setBit(w.dirty, slot)
	}
}

// popHead removes the oldest slot, which must hold the retiring di, and
// returns its position.
func (w *window) popHead(di *pipeline.DynInst) int {
	slot := w.head
	w.drop(di, slot, "retire")
	if w.head++; w.head == len(w.slots) {
		w.head = 0
	}
	return slot
}

// popTail removes the youngest slot, which must hold the squashed di, and
// returns its position.
func (w *window) popTail(di *pipeline.DynInst) int {
	slot := w.head + w.n - 1
	if slot >= len(w.slots) {
		slot -= len(w.slots)
	}
	w.drop(di, slot, "squash")
	return slot
}

func (w *window) drop(di *pipeline.DynInst, slot int, hook string) {
	if w.n == 0 || w.slots[slot] != di {
		panic(fmt.Sprintf("taint: %s of seq %d disagrees with the policy's ROB mirror", hook, di.Seq))
	}
	w.slots[slot] = nil
	w.n--
	if di.Dst != pipeline.NoReg {
		w.setUsers(di, slot, false)
		clearBit(w.dirty, slot)
	}
}

func (w *window) setUsers(di *pipeline.DynInst, slot int, on bool) {
	for _, p := range [3]pipeline.PhysReg{di.Dst, di.Src1, di.Src2} {
		if p == pipeline.NoReg {
			continue
		}
		row := w.users[int(p)*w.words:]
		if on {
			setBit(row, slot)
		} else {
			clearBit(row, slot)
		}
	}
}

// touch records a taint write to p: every in-flight slot naming p is dirty.
func (w *window) touch(p pipeline.PhysReg) {
	row := w.users[int(p)*w.words:]
	for i := range w.dirty {
		w.dirty[i] |= row[i]
	}
}

// oldest returns the oldest slot in set, or -1 if it is empty. Only
// in-flight slots are ever in a set, so slots at or after head are older
// than those before it.
func (w *window) oldest(set []uint64) int {
	if s := nextBit(set, w.head, len(w.slots)); s >= 0 {
		return s
	}
	return nextBit(set, 0, w.head)
}

// nextBit returns the lowest position in [from, to) set in set, or -1.
func nextBit(set []uint64, from, to int) int {
	for from < to {
		if word := set[from>>6] >> (from & 63); word != 0 {
			if s := from + bits.TrailingZeros64(word); s < to {
				return s
			}
			return -1
		}
		from = (from>>6 + 1) << 6
	}
	return -1
}

func setBit(set []uint64, i int)   { set[i>>6] |= 1 << (i & 63) }
func clearBit(set []uint64, i int) { set[i>>6] &^= 1 << (i & 63) }
