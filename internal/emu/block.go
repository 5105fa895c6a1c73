package emu

import (
	"encoding/binary"
	"math/bits"

	"spt/internal/isa"
)

// Threaded-code execution engine: instead of re-decoding every
// instruction on every visit (the Step path), run predecodes code into
// blocks of dense micro-op records — operands, immediates, and branch
// targets already extracted, the handler selected — and executes them in
// a tight dispatch loop. Each instruction decodes to exactly one µop.
//
// A block has one entry and many exits, and covers one contiguous PC
// range [start, end): decode continues through conditional branches (the
// not-taken path stays in-block, the taken path exits through a per-op
// successor pointer) and stops after a JAL, JALR or HALT, or at
// maxBlockLen instructions.
//
// Every memory micro-op owns a one-entry page-translation cache (memSlot)
// validated by the memory's epoch, so the three-array kernels (lbm) whose
// bases alias in the global direct-mapped page cache each keep their own
// hot page.
//
// There is one dispatch loop (runBlocks) and one mode: every instruction
// records its WarmEvent. RunWarm hands the events to the checkpoint
// walker; Run discards them.
//
// Correctness contract: the block engine and Step implement identical
// architectural semantics and warming events (block_test.go cross-checks
// them instruction for instruction on every suite kernel and on random
// programs). Step remains the golden reference; the block engine is the
// throughput path behind Run and RunWarm.
//
// The cache holds no architectural state — only a decoded view of
// Prog.Code — so snapshots and copy-on-write restores (snapshot.go) never
// interact with it (the translation slots carry architectural *page
// pointers, but they are guarded by the memory epoch, which every
// snapshot, restore, and copy-on-write clone advances). The only way code
// changes is through SetCode/InvalidateCode, which drop every cached
// block overlapping the modified range.

// uKind selects a micro-op handler in the dispatch loop. Hot operations
// get dedicated kinds with the semantics inlined; the rarer ALU ops
// (division, comparisons, min/max) share the generic uAlu kind, which
// falls back to the ALU function — the same single source of truth the
// pipeline's execute stage uses.
type uKind uint8

const (
	uNop uKind = iota
	uHalt
	uMovi
	uMov
	uLoadNop // load to the zero register: no architectural effect, but warming still sees the access
	uLoad8
	uLoad4
	uLoad1
	uStore8
	uStore4
	uStore1
	uJal
	uJalr
	uBeq
	uBne
	uBlt
	uBge
	uBltu
	uBgeu
	uAdd
	uSub
	uAnd
	uOr
	uXor
	uShl
	uShr
	uSra
	uMul
	uAddw
	uSubw
	uRolw
	uRorw
	uAddi
	uAndi
	uOri
	uXori
	uShli
	uShri
	uSrai
	uSlti
	uAlu // anything else register-writing: DIV, REM, SLT(U), MIN/MAX(U), ...
)

// raReg is the return-address register, the only register with
// call/return semantics baked into the warming event classification.
const raReg = uint8(isa.RA)

// uOp is one predecoded micro-op: everything the dispatch loop needs
// without touching isa.Instruction again.
type uOp struct {
	imm    int64
	target uint64 // static taken/jump destination (branches, uJal)
	succ   *block // cached block at target, resolved lazily on first taken exit
	pc     uint32
	sIdx   uint16 // index into the block's translation slots (memory ops only)
	kind   uKind
	op     isa.Op
	rd     uint8
	rs1    uint8
	rs2    uint8
}

// memSlot is a one-entry page-translation cache owned by a single memory
// micro-op. tag is the page number + 1 (0 marks empty); the slot is valid
// only while epoch matches the memory's current epoch, which advances on
// every snapshot, restore, explicit invalidation, and copy-on-write page
// clone — and epochs are globally unique, so a slot can never alias a
// different Memory that happens to reuse the address.
type memSlot struct {
	epoch uint64
	tag   uint64
	pg    *page
}

// maxBlockLen bounds a block's instruction count so the budget arithmetic
// stays cheap and a pathological straight-line program cannot decode the
// whole code section in one shot.
const maxBlockLen = 128

// block is a predecoded block covering the instructions [start, end): a
// full pass retires end-start of them and resumes at end. The op at
// index j is the instruction at start+j. next chains to the fall-through
// successor (resolved lazily), taken exits chain through each op's succ.
type block struct {
	start uint64
	end   uint64
	ops   []uOp
	slots []memSlot
	next  *block
}

// decodeOne predecodes the instruction at pc. Register-writing ops whose
// destination is the hardwired zero register are architectural no-ops, so
// they decode to uNop — except loads, which decode to uLoadNop so the
// warming event stream still sees the memory access exactly like the
// per-instruction reference path does.
func decodeOne(ins isa.Instruction, pc uint64) uOp {
	u := uOp{op: ins.Op, rd: uint8(ins.Rd), rs1: uint8(ins.Rs1), rs2: uint8(ins.Rs2), imm: ins.Imm, pc: uint32(pc)}
	switch ins.Op {
	case isa.NOP:
		u.kind = uNop
	case isa.HALT:
		u.kind = uHalt
	case isa.MOVI:
		u.kind = uMovi
	case isa.MOV:
		u.kind = uMov
	case isa.LD:
		u.kind = uLoad8
	case isa.LDW:
		u.kind = uLoad4
	case isa.LDB:
		u.kind = uLoad1
	case isa.ST:
		u.kind = uStore8
	case isa.STW:
		u.kind = uStore4
	case isa.STB:
		u.kind = uStore1
	case isa.JAL:
		u.kind = uJal
		u.target = pc + uint64(ins.Imm)
	case isa.JALR:
		u.kind = uJalr
	case isa.BEQ:
		u.kind = uBeq
		u.target = pc + uint64(ins.Imm)
	case isa.BNE:
		u.kind = uBne
		u.target = pc + uint64(ins.Imm)
	case isa.BLT:
		u.kind = uBlt
		u.target = pc + uint64(ins.Imm)
	case isa.BGE:
		u.kind = uBge
		u.target = pc + uint64(ins.Imm)
	case isa.BLTU:
		u.kind = uBltu
		u.target = pc + uint64(ins.Imm)
	case isa.BGEU:
		u.kind = uBgeu
		u.target = pc + uint64(ins.Imm)
	case isa.ADD:
		u.kind = uAdd
	case isa.SUB:
		u.kind = uSub
	case isa.AND:
		u.kind = uAnd
	case isa.OR:
		u.kind = uOr
	case isa.XOR:
		u.kind = uXor
	case isa.SHL:
		u.kind = uShl
	case isa.SHR:
		u.kind = uShr
	case isa.SRA:
		u.kind = uSra
	case isa.MUL:
		u.kind = uMul
	case isa.ADDW:
		u.kind = uAddw
	case isa.SUBW:
		u.kind = uSubw
	case isa.ROLW:
		u.kind = uRolw
	case isa.RORW:
		u.kind = uRorw
	case isa.ADDI:
		u.kind = uAddi
	case isa.ANDI:
		u.kind = uAndi
	case isa.ORI:
		u.kind = uOri
	case isa.XORI:
		u.kind = uXori
	case isa.SHLI:
		u.kind = uShli
	case isa.SHRI:
		u.kind = uShri
	case isa.SRAI:
		u.kind = uSrai
	case isa.SLTI:
		u.kind = uSlti
	default:
		// Every remaining opcode is a register-writing ALU operation; ALU
		// panics on anything it does not know, exactly like Step would.
		u.kind = uAlu
	}
	if u.rd == 0 {
		switch u.kind {
		case uLoad8, uLoad4, uLoad1:
			u.kind = uLoadNop
		case uMovi, uMov, uAdd, uSub, uAnd, uOr, uXor, uShl, uShr, uSra,
			uMul, uAddw, uSubw, uRolw, uRorw, uAddi, uAndi, uOri, uXori,
			uShli, uShri, uSrai, uSlti, uAlu:
			u.kind = uNop
		}
	}
	return u
}

func isMemKind(k uKind) bool {
	switch k {
	case uLoad8, uLoad4, uLoad1, uStore8, uStore4, uStore1:
		return true
	}
	return false
}

// decodeBlock predecodes the block entered at start: straight-line code
// plus not-taken branch fall-through, up to and including the first JAL,
// JALR or HALT.
func decodeBlock(code []isa.Instruction, start uint64) *block {
	b := &block{start: start}
	nslots := 0
	pc := start
	for pc < uint64(len(code)) && pc-start < maxBlockLen {
		u := decodeOne(code[pc], pc)
		if isMemKind(u.kind) {
			u.sIdx = uint16(nslots)
			nslots++
		}
		b.ops = append(b.ops, u)
		pc++
		if u.kind == uJal || u.kind == uJalr || u.kind == uHalt {
			break
		}
	}
	b.end = pc
	if nslots > 0 {
		b.slots = make([]memSlot, nslots)
	}
	return b
}

// blockAt returns the cached block entered at pc, decoding it on first
// visit. The caller guarantees pc < len(Prog.Code).
func (e *Emulator) blockAt(pc uint64) *block {
	if e.blocks == nil {
		e.blocks = make([]*block, len(e.Prog.Code))
	}
	b := e.blocks[pc]
	if b == nil {
		b = decodeBlock(e.Prog.Code, pc)
		e.blocks[pc] = b
	}
	return b
}

// SetCode replaces the instruction at pc and invalidates every cached
// block that decoded it, so the next execution re-decodes the new code.
// This is the self-modifying-code hook: µRISC keeps code in an immutable
// section separate from data memory, so stores can never alias it —
// mutation happens only through this explicit API. The program is mutated
// in place; the caller owns sharing (an isa.Program handed to several
// emulators is mutated for all of them, but only this emulator's block
// cache is invalidated — use one program per emulator when patching code).
func (e *Emulator) SetCode(pc uint64, ins isa.Instruction) {
	e.Prog.Code[pc] = ins
	e.InvalidateCode(pc, pc+1)
}

// InvalidateCode drops cached blocks covering [from, to), forcing a
// re-decode on next entry. Use it after mutating Prog.Code directly.
// Invalidation is coarse — one overlapping block drops the whole cache —
// because blocks chain successor pointers to each other, so a surviving
// block could otherwise keep a stale neighbor reachable. Code patching is
// rare and decode is cheap; correctness wins over precision here.
func (e *Emulator) InvalidateCode(from, to uint64) {
	for _, b := range e.blocks {
		if b != nil && b.start < to && from < b.end {
			e.blocks = nil
			return
		}
	}
}

// runBlocks is the dispatch loop behind Run and RunWarm. Control chains
// block to block through cached successor pointers (taken exits through
// the exiting op's succ, fall-through through the block's next); only
// dynamic jumps fall back to a cache lookup. A block executes on the fast
// path only when the remaining budget covers it whole — the final partial
// block runs through the per-instruction Step reference.
//
// Every instruction appends one WarmEvent to the warming buffer, captured
// from pre-execution state. The buffer is flushed through flush on entry
// to a block it has no room for (a block never exceeds maxBlockLen events,
// far below warmBufCap), when it fills on the Step tail, and before every
// return. Run passes a sink that discards the events, so there is one loop
// and one mode.
func (e *Emulator) runBlocks(maxInstructions uint64, flush func([]WarmEvent)) (uint64, error) {
	s := &e.State
	regs := &s.Regs
	m := s.Mem
	code := e.Prog.Code
	codeLen := uint64(len(code))
	var (
		done  uint64
		b     *block
		slots []memSlot
		ops   []uOp
		o     *uOp
		ev    *WarmEvent // the current instruction's event (last in buf)
		j     int
		err   error
	)
	if e.warmBuf == nil {
		e.warmBuf = make([]WarmEvent, 0, warmBufCap)
	}
	buf := e.warmBuf[:0]

top:
	if s.Halted || done >= maxInstructions {
		goto out
	}
	if s.PC >= codeLen {
		err = ErrPCOutOfRange{s.PC}
		goto out
	}
	b = e.blockAt(s.PC)

enter:
	if done+(b.end-b.start) > maxInstructions {
		goto tail
	}
	ops = b.ops
	slots = b.slots
	if cap(buf)-len(buf) < len(ops) {
		flush(buf)
		buf = buf[:0]
	}
	for j = 0; j < len(ops); j++ {
		o = &ops[j]
		buf = append(buf, WarmEvent{PC: uint64(o.pc)})
		switch o.kind {
		case uNop:
		case uHalt:
			s.Halted = true
			s.PC = uint64(o.pc) + 1
			s.Retired += uint64(j) + 1
			done += uint64(j) + 1
			goto out
		case uMovi:
			regs[o.rd&31] = uint64(o.imm)
		case uMov:
			regs[o.rd&31] = regs[o.rs1&31]
		case uLoadNop:
			ev = &buf[len(buf)-1]
			ev.Kind = WarmLoad
			ev.Aux = regs[o.rs1&31] + uint64(o.imm)
		case uLoad8:
			// Memory ops go through the op's private translation slot
			// first (hot page pinned per static instruction, immune to
			// page-cache aliasing); any miss falls back to the general
			// Read/Write, then re-primes the slot.
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmLoad
			ev.Aux = a
			off := a & (pageSize - 1)
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if off <= pageSize-8 && sl.tag == pn+1 && sl.epoch == m.epoch {
				regs[o.rd&31] = binary.LittleEndian.Uint64(sl.pg[off : off+8])
			} else {
				regs[o.rd&31] = m.Read(a, 8)
				if p := m.lookup(pn); p != nil {
					sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, p
				}
			}
		case uLoad4:
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmLoad
			ev.Aux = a
			off := a & (pageSize - 1)
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if off <= pageSize-4 && sl.tag == pn+1 && sl.epoch == m.epoch {
				regs[o.rd&31] = uint64(binary.LittleEndian.Uint32(sl.pg[off : off+4]))
			} else {
				regs[o.rd&31] = m.Read(a, 4)
				if p := m.lookup(pn); p != nil {
					sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, p
				}
			}
		case uLoad1:
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmLoad
			ev.Aux = a
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if sl.tag == pn+1 && sl.epoch == m.epoch {
				regs[o.rd&31] = uint64(sl.pg[a&(pageSize-1)])
			} else {
				regs[o.rd&31] = m.Read(a, 1)
				if p := m.lookup(pn); p != nil {
					sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, p
				}
			}
		case uStore8:
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmStore
			ev.Aux = a
			off := a & (pageSize - 1)
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if off <= pageSize-8 && sl.tag == pn+1 && sl.epoch == m.epoch {
				binary.LittleEndian.PutUint64(sl.pg[off:off+8], regs[o.rs2&31])
			} else {
				m.Write(a, 8, regs[o.rs2&31])
				if off <= pageSize-8 {
					// ensure after Write is a cheap write-cache hit, and if
					// the write just broke copy-on-write the slot picks up
					// the fresh epoch and the cloned page.
					sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, m.ensure(pn)
				}
			}
		case uStore4:
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmStore
			ev.Aux = a
			off := a & (pageSize - 1)
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if off <= pageSize-4 && sl.tag == pn+1 && sl.epoch == m.epoch {
				binary.LittleEndian.PutUint32(sl.pg[off:off+4], uint32(regs[o.rs2&31]))
			} else {
				m.Write(a, 4, regs[o.rs2&31])
				if off <= pageSize-4 {
					sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, m.ensure(pn)
				}
			}
		case uStore1:
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Kind = WarmStore
			ev.Aux = a
			pn := a >> pageShift
			sl := &slots[o.sIdx]
			if sl.tag == pn+1 && sl.epoch == m.epoch {
				sl.pg[a&(pageSize-1)] = byte(regs[o.rs2&31])
			} else {
				m.Write(a, 1, regs[o.rs2&31])
				sl.epoch, sl.tag, sl.pg = m.epoch, pn+1, m.ensure(pn)
			}
		case uJal:
			ev = &buf[len(buf)-1]
			ev.Aux = o.target
			if o.rd == raReg {
				ev.Kind = WarmJalCall
			} else {
				ev.Kind = WarmJal
			}
			if o.rd != 0 {
				regs[o.rd&31] = uint64(o.pc) + 1
			}
			s.PC = o.target
			s.Retired += uint64(j) + 1
			done += uint64(j) + 1
			goto taken
		case uJalr:
			// Read rs1 before writing the link: JALR may use its own
			// destination as the jump base.
			a := regs[o.rs1&31] + uint64(o.imm)
			ev = &buf[len(buf)-1]
			ev.Aux = a
			switch {
			case o.rd == raReg:
				ev.Kind = WarmJalrCall
			case o.rs1 == raReg:
				ev.Kind = WarmJalrRet
			default:
				ev.Kind = WarmJalr
			}
			if o.rd != 0 {
				regs[o.rd&31] = uint64(o.pc) + 1
			}
			s.PC = a
			s.Retired += uint64(j) + 1
			done += uint64(j) + 1
			goto top
		case uBeq:
			if regs[o.rs1&31] == regs[o.rs2&31] {
				goto bTaken
			}
			goto bNotTaken
		case uBne:
			if regs[o.rs1&31] != regs[o.rs2&31] {
				goto bTaken
			}
			goto bNotTaken
		case uBlt:
			if int64(regs[o.rs1&31]) < int64(regs[o.rs2&31]) {
				goto bTaken
			}
			goto bNotTaken
		case uBge:
			if int64(regs[o.rs1&31]) >= int64(regs[o.rs2&31]) {
				goto bTaken
			}
			goto bNotTaken
		case uBltu:
			if regs[o.rs1&31] < regs[o.rs2&31] {
				goto bTaken
			}
			goto bNotTaken
		case uBgeu:
			if regs[o.rs1&31] >= regs[o.rs2&31] {
				goto bTaken
			}
			goto bNotTaken
		case uAdd:
			regs[o.rd&31] = regs[o.rs1&31] + regs[o.rs2&31]
		case uSub:
			regs[o.rd&31] = regs[o.rs1&31] - regs[o.rs2&31]
		case uAnd:
			regs[o.rd&31] = regs[o.rs1&31] & regs[o.rs2&31]
		case uOr:
			regs[o.rd&31] = regs[o.rs1&31] | regs[o.rs2&31]
		case uXor:
			regs[o.rd&31] = regs[o.rs1&31] ^ regs[o.rs2&31]
		case uShl:
			regs[o.rd&31] = regs[o.rs1&31] << (regs[o.rs2&31] & 63)
		case uShr:
			regs[o.rd&31] = regs[o.rs1&31] >> (regs[o.rs2&31] & 63)
		case uSra:
			regs[o.rd&31] = uint64(int64(regs[o.rs1&31]) >> (regs[o.rs2&31] & 63))
		case uMul:
			regs[o.rd&31] = regs[o.rs1&31] * regs[o.rs2&31]
		case uAddw:
			regs[o.rd&31] = uint64(uint32(regs[o.rs1&31]) + uint32(regs[o.rs2&31]))
		case uSubw:
			regs[o.rd&31] = uint64(uint32(regs[o.rs1&31]) - uint32(regs[o.rs2&31]))
		case uRolw:
			regs[o.rd&31] = uint64(bits.RotateLeft32(uint32(regs[o.rs1&31]), int(regs[o.rs2&31]&31)))
		case uRorw:
			regs[o.rd&31] = uint64(bits.RotateLeft32(uint32(regs[o.rs1&31]), -int(regs[o.rs2&31]&31)))
		case uAddi:
			regs[o.rd&31] = regs[o.rs1&31] + uint64(o.imm)
		case uAndi:
			regs[o.rd&31] = regs[o.rs1&31] & uint64(o.imm)
		case uOri:
			regs[o.rd&31] = regs[o.rs1&31] | uint64(o.imm)
		case uXori:
			regs[o.rd&31] = regs[o.rs1&31] ^ uint64(o.imm)
		case uShli:
			regs[o.rd&31] = regs[o.rs1&31] << (uint64(o.imm) & 63)
		case uShri:
			regs[o.rd&31] = regs[o.rs1&31] >> (uint64(o.imm) & 63)
		case uSrai:
			regs[o.rd&31] = uint64(int64(regs[o.rs1&31]) >> (uint64(o.imm) & 63))
		case uSlti:
			if int64(regs[o.rs1&31]) < o.imm {
				regs[o.rd&31] = 1
			} else {
				regs[o.rd&31] = 0
			}
		case uAlu:
			regs[o.rd&31] = ALU(o.op, regs[o.rs1&31], regs[o.rs2&31], o.imm)
		}
		continue

	bNotTaken:
		// Not-taken branch: execution continues in-block (the block
		// decoded through the fall-through path).
		ev = &buf[len(buf)-1]
		ev.Kind = WarmCondNotTaken
		ev.Aux = ev.PC + 1
		continue

	bTaken:
		ev = &buf[len(buf)-1]
		ev.Kind = WarmCondTaken
		ev.Aux = o.target
		s.PC = o.target
		s.Retired += uint64(j) + 1
		done += uint64(j) + 1
		goto taken
	}

	// Fell off the end of the block: resume at the next sequential PC.
	s.PC = b.end
	s.Retired += b.end - b.start
	done += b.end - b.start
	if b.next == nil {
		if s.PC >= codeLen {
			err = ErrPCOutOfRange{s.PC}
			goto out
		}
		b.next = e.blockAt(s.PC)
	}
	b = b.next
	goto enter

taken:
	if o.succ == nil {
		if s.PC >= codeLen {
			err = ErrPCOutOfRange{s.PC}
			goto out
		}
		o.succ = e.blockAt(s.PC)
	}
	b = o.succ
	goto enter

tail:
	// The remaining budget does not cover the next block whole: retire the
	// leftovers one instruction at a time through Step (identical
	// semantics by contract).
	for done < maxInstructions && !s.Halted {
		if s.PC >= codeLen {
			err = ErrPCOutOfRange{s.PC}
			goto out
		}
		if len(buf) == cap(buf) {
			flush(buf)
			buf = buf[:0]
		}
		buf = append(buf, warmEventFor(s, s.PC, &code[s.PC]))
		if err = e.Step(); err != nil {
			goto out
		}
		done++
	}
	goto top

out:
	if len(buf) > 0 {
		flush(buf)
	}
	e.warmBuf = buf[:0]
	return done, err
}
