// Package emu is a functional (non-pipelined) µRISC emulator. It defines
// the architectural semantics of the ISA and serves as the golden model the
// out-of-order pipeline is property-tested against: after running the same
// program, the pipeline's retired architectural state must match the
// emulator's exactly.
package emu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"spt/internal/isa"
)

// Memory is a sparse byte-addressable memory backed by fixed-size pages.
// Small direct-mapped caches in front of the page map serve the common
// case — repeated accesses to a few hot pages — without a map lookup per
// byte. Reads and writes use separate caches: a snapshot freezes every
// page copy-on-write, and the write cache's invariant is that it only
// holds writable (unfrozen) pages, so the write fast path never needs a
// frozen check. Any operation that replaces pages behind the caches'
// backs (Snapshot, restore) must call Invalidate.
type Memory struct {
	pages map[uint64]*page
	ctags [pcacheSlots]uint64 // read cache: page number + 1; 0 marks empty
	cptrs [pcacheSlots]*page
	wtags [pcacheSlots]uint64 // write cache: only unfrozen pages
	wptrs [pcacheSlots]*page
	// frozen marks pages aliased by at least one live Snapshot. A write to
	// a frozen page clones it first (copy-on-write), so snapshot contents
	// are immutable. nil until the first snapshot touches this memory.
	frozen map[uint64]struct{}
	// epoch is a globally unique generation stamp validating the block
	// engine's per-µop translation slots (block.go). It advances — to a
	// fresh value no Memory has ever used — whenever a cached page pointer
	// could go stale: Invalidate (snapshot, restore) and copy-on-write
	// clones. A slot whose epoch matches is guaranteed to point at the
	// live page of this memory.
	epoch uint64
}

// memEpochCtr issues globally unique memory epochs. Atomic because
// parallel sampled windows run emulators on concurrent goroutines.
var memEpochCtr atomic.Uint64

func newMemEpoch() uint64 { return memEpochCtr.Add(1) }

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	// pcacheSlots is the number of direct-mapped page-cache slots (a power
	// of two). 256 slots cover 1 MiB of hot footprint — enough that the
	// pointer-chasing kernels (mcf, x264, lbm) mostly stay out of the page
	// map.
	pcacheSlots = 256
)

type page [pageSize]byte

// NewMemory returns an empty memory. All bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page), epoch: newMemEpoch()}
}

// lookup returns the page holding page number pn, or nil if it has never
// been written, going through the direct-mapped cache.
func (m *Memory) lookup(pn uint64) *page {
	i := pn & (pcacheSlots - 1)
	if m.ctags[i] == pn+1 {
		return m.cptrs[i]
	}
	p := m.pages[pn]
	if p != nil {
		m.ctags[i] = pn + 1
		m.cptrs[i] = p
	}
	return p
}

// ensure returns a writable page holding pn, allocating it on first touch
// and breaking copy-on-write sharing if the page is frozen by a snapshot.
func (m *Memory) ensure(pn uint64) *page {
	i := pn & (pcacheSlots - 1)
	if m.wtags[i] == pn+1 {
		return m.wptrs[i]
	}
	p := m.pages[pn]
	if p == nil {
		p = new(page)
		m.pages[pn] = p
	} else if m.frozen != nil {
		if _, f := m.frozen[pn]; f {
			cp := new(page)
			*cp = *p
			m.pages[pn] = cp
			delete(m.frozen, pn)
			p = cp
			// The old page pointer is now stale for writes and no longer
			// the live copy for reads: expire every translation slot.
			m.epoch = newMemEpoch()
		}
	}
	m.wtags[i] = pn + 1
	m.wptrs[i] = p
	// Keep the read cache coherent: after a copy-on-write clone the old
	// pointer would serve stale data to lookup.
	m.ctags[i] = pn + 1
	m.cptrs[i] = p
	return p
}

// Invalidate drops every cached page pointer, forcing the next access of
// each page through the page map. It must be called whenever the page map
// is mutated behind the caches' backs — Snapshot (which freezes pages) and
// snapshot restore (which installs a new page map) do so internally.
// Without it a cached pointer could alias a page that is no longer the
// live copy.
func (m *Memory) Invalidate() {
	m.ctags = [pcacheSlots]uint64{}
	m.cptrs = [pcacheSlots]*page{}
	m.wtags = [pcacheSlots]uint64{}
	m.wptrs = [pcacheSlots]*page{}
	m.epoch = newMemEpoch()
}

// LoadSegments copies a program's initial data image into memory, in
// order (a later segment overwrites an earlier one where they overlap).
// Each page-sized run goes through one ensure, so the same pages are
// allocated, and frozen ones cloned, as byte-by-byte SetByte calls would.
func (m *Memory) LoadSegments(segs []isa.Segment) {
	for _, s := range segs {
		addr, b := s.Addr, s.Bytes
		for len(b) > 0 {
			n := copy(m.ensure(addr >> pageShift)[addr&(pageSize-1):], b)
			addr += uint64(n)
			b = b[n:]
		}
	}
}

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.ensure(addr >> pageShift)[addr&(pageSize-1)] = b
}

// Read reads size bytes little-endian, zero-extended to 64 bits.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		// Fast path: the access stays within one page. The common widths
		// load whole words instead of assembling bytes.
		p := m.lookup(addr >> pageShift)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off : off+8])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off : off+4]))
		case 1:
			return uint64(p[off])
		}
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes the low size bytes of v little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.ensure(addr >> pageShift)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:off+8], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(v))
			return
		case 1:
			p[off] = byte(v)
			return
		}
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Footprint returns the number of allocated pages (for tests and stats).
func (m *Memory) Footprint() int { return len(m.pages) }

// State is the complete architectural state of a µRISC machine.
type State struct {
	PC     uint64
	Regs   [isa.NumRegs]uint64
	Mem    *Memory
	Halted bool
	// Retired counts executed (retired) instructions.
	Retired uint64
}

// Emulator executes µRISC programs. Step interprets one instruction at a
// time from the program text (the golden reference path); Run and RunWarm
// execute through the predecoded basic-block cache (block.go), which is
// semantically identical but several times faster. The two paths can be
// mixed freely on one emulator.
type Emulator struct {
	Prog  *isa.Program
	State State

	// blocks caches predecoded superblocks by entry PC (block.go). It is
	// a decode cache over the immutable code section — the only
	// architectural pointers it holds (per-µop translation slots) are
	// epoch-guarded — so snapshot/restore never touches it and it
	// survives Restore. SetCode/InvalidateCode drop stale entries.
	blocks []*block

	// warmBuf is the dispatch loop's reusable warming-event buffer
	// (warm.go), shared by Run and RunWarm.
	warmBuf []WarmEvent
}

// New creates an emulator with the program's data image loaded and the PC
// at the entry point.
func New(p *isa.Program) *Emulator {
	mem := NewMemory()
	mem.LoadSegments(p.Data)
	return &Emulator{
		Prog:  p,
		State: State{PC: p.Entry, Mem: mem},
	}
}

// ErrPCOutOfRange is returned when execution falls off the end of the code.
type ErrPCOutOfRange struct{ PC uint64 }

func (e ErrPCOutOfRange) Error() string {
	return fmt.Sprintf("emu: pc %d out of range", e.PC)
}

// Step executes one instruction. It returns an error if the PC is invalid.
// Stepping a halted machine is a no-op.
func (e *Emulator) Step() error {
	s := &e.State
	if s.Halted {
		return nil
	}
	if s.PC >= uint64(len(e.Prog.Code)) {
		return ErrPCOutOfRange{s.PC}
	}
	ins := e.Prog.Code[s.PC]
	nextPC := s.PC + 1

	reg := func(r isa.Reg) uint64 { return s.Regs[r] }
	setReg := func(r isa.Reg, v uint64) {
		if r != isa.Zero {
			s.Regs[r] = v
		}
	}

	switch ins.Op {
	case isa.NOP:
	case isa.HALT:
		s.Halted = true
	case isa.MOVI:
		setReg(ins.Rd, uint64(ins.Imm))
	case isa.MOV:
		setReg(ins.Rd, reg(ins.Rs1))
	case isa.LD, isa.LDW, isa.LDB:
		addr := reg(ins.Rs1) + uint64(ins.Imm)
		setReg(ins.Rd, s.Mem.Read(addr, ins.MemSize()))
	case isa.ST, isa.STW, isa.STB:
		addr := reg(ins.Rs1) + uint64(ins.Imm)
		s.Mem.Write(addr, ins.MemSize(), reg(ins.Rs2))
	case isa.JAL:
		setReg(ins.Rd, s.PC+1)
		nextPC = s.PC + uint64(ins.Imm)
	case isa.JALR:
		target := reg(ins.Rs1) + uint64(ins.Imm)
		setReg(ins.Rd, s.PC+1)
		nextPC = target
	default:
		if ins.IsCondBranch() {
			if BranchTaken(ins.Op, reg(ins.Rs1), reg(ins.Rs2)) {
				nextPC = s.PC + uint64(ins.Imm)
			}
		} else {
			setReg(ins.Rd, ALU(ins.Op, reg(ins.Rs1), reg(ins.Rs2), ins.Imm))
		}
	}
	s.PC = nextPC
	s.Retired++
	return nil
}

// Run executes until the machine halts or maxInstructions retire, through
// the predecoded basic-block engine. It reports the number of instructions
// retired by this call. Run is RunWarm with the warming events discarded:
// the block engine has one dispatch loop, which always records them.
func (e *Emulator) Run(maxInstructions uint64) (uint64, error) {
	return e.runBlocks(maxInstructions, discardWarm)
}

// discardWarm is Run's warming sink.
func discardWarm([]WarmEvent) {}

// BranchTaken evaluates a conditional branch's predicate.
func BranchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	panic(fmt.Sprintf("emu: BranchTaken on non-branch %v", op))
}

// ALU evaluates a register-writing ALU operation. It is the single source
// of truth for arithmetic semantics: the pipeline's execute stage calls it
// too, so the golden model and the timing model cannot diverge.
func ALU(op isa.Op, a, b uint64, imm int64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	case isa.SRA:
		return uint64(int64(a) >> (b & 63))
	case isa.MUL:
		return a * b
	case isa.DIV:
		if b == 0 {
			return ^uint64(0) // -1, RISC-V convention
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a // overflow: return dividend
		}
		return uint64(int64(a) / int64(b))
	case isa.REM:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case isa.SLT:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case isa.SLTU:
		if a < b {
			return 1
		}
		return 0
	case isa.MIN:
		if int64(a) < int64(b) {
			return a
		}
		return b
	case isa.MAX:
		if int64(a) > int64(b) {
			return a
		}
		return b
	case isa.MINU:
		if a < b {
			return a
		}
		return b
	case isa.MAXU:
		if a > b {
			return a
		}
		return b
	case isa.ADDW:
		return uint64(uint32(a) + uint32(b))
	case isa.SUBW:
		return uint64(uint32(a) - uint32(b))
	case isa.ROLW:
		return uint64(bits.RotateLeft32(uint32(a), int(b&31)))
	case isa.RORW:
		return uint64(bits.RotateLeft32(uint32(a), -int(b&31)))
	case isa.ADDI:
		return a + uint64(imm)
	case isa.ANDI:
		return a & uint64(imm)
	case isa.ORI:
		return a | uint64(imm)
	case isa.XORI:
		return a ^ uint64(imm)
	case isa.SHLI:
		return a << (uint64(imm) & 63)
	case isa.SHRI:
		return a >> (uint64(imm) & 63)
	case isa.SRAI:
		return uint64(int64(a) >> (uint64(imm) & 63))
	case isa.SLTI:
		if int64(a) < imm {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("emu: ALU on unsupported op %v", op))
}
