// Package symx is a relational symbolic executor over µRISC: the repo's
// second leakage oracle. Where internal/fuzz decides "does this gadget
// leak?" by concretely simulating two secret values and diffing the
// observation traces, symx checks speculative noninterference for *all*
// secret values, SPECTECTOR-style (Guarnieri et al.): the secret bytes are
// symbolic, execution follows an always-mispredict speculative semantics
// with a bounded squash depth, and the proof obligation is that the
// observation trace — addresses of loads and stores plus speculatively
// issued branch redirects — is independent of the secret.
//
// The engine is deliberately SMT-free. Values are terms over the symbolic
// secret bytes; a known-bits ("varbits") analysis folds every term the
// secret provably cannot influence, and exhaustive evaluation over the
// narrow secret domain (the gadget contract is a 1–2 byte secret) decides
// everything the bit-level analysis cannot. For byte-wide secrets the
// verdict is therefore exact, not approximate: Secure means no secret
// value pair can diverge the trace, and Leak carries a concrete witness
// pair replayable by the differential fuzzer.
package symx

import (
	"fmt"

	"spt/internal/emu"
	"spt/internal/isa"
)

// termKind discriminates Term nodes.
type termKind uint8

const (
	// kConst is a concrete 64-bit value.
	kConst termKind = iota
	// kSecret is one symbolic secret byte (Val = byte index), read as a
	// zero-extended uint64 in [0,255].
	kSecret
	// kOp applies an isa ALU operation to A (and B or Imm).
	kOp
	// kVec is an explicit value table: one uint64 per point of the secret
	// domain. It represents values the term language cannot express
	// structurally — a load whose address depends on the secret resolves
	// to the vector of per-secret memory contents.
	kVec
)

// Term is a value as a pure function of the symbolic secret bytes. Terms
// are immutable once built; constructors constant-fold through emu.ALU
// (the ISA's single source of arithmetic truth) and collapse any term the
// varbits analysis proves secret-independent, so a Term is symbolic only
// if the secret may genuinely influence its value.
type Term struct {
	kind termKind
	op   isa.Op
	a, b *Term
	imm  int64
	// val is the value (kConst) or the secret byte index (kSecret).
	val uint64
	// vec is the per-domain-point value table (kVec only).
	vec []uint64
	// base is the term's value at the all-zero secret, maintained
	// incrementally so folding never needs a full evaluation pass.
	base uint64
	// varbits marks the bits the secret may influence. It is sound, not
	// exact: a set bit may still be constant in truth, but a clear bit is
	// guaranteed secret-independent.
	varbits uint64
}

// smallConsts are the shared concrete terms for every byte value: terms
// are immutable, so one table serves every Const below 256 — each memory
// byte of a concrete run, and most small immediates — without allocating.
var smallConsts = func() (t [256]Term) {
	for i := range t {
		t[i] = Term{kind: kConst, val: uint64(i), base: uint64(i)}
	}
	return t
}()

// Const builds a concrete term.
func Const(v uint64) *Term { return heapTerms.newConst(v) }

// SecretByte builds the symbolic term for secret byte i (zero-extended).
func SecretByte(i int) *Term {
	return &Term{kind: kSecret, val: uint64(i), varbits: 0xFF}
}

// IsConst reports whether the term folded to a concrete value.
func (t *Term) IsConst() bool { return t.kind == kConst }

// ConstVal returns the concrete value of a folded term.
func (t *Term) ConstVal() (uint64, bool) {
	if t.kind == kConst {
		return t.val, true
	}
	return 0, false
}

// String renders the term for diagnostics.
func (t *Term) String() string {
	switch t.kind {
	case kConst:
		return fmt.Sprintf("%#x", t.val)
	case kSecret:
		return fmt.Sprintf("secret[%d]", t.val)
	case kVec:
		return fmt.Sprintf("select(secret -> %d values)", len(t.vec))
	}
	if t.b != nil {
		return fmt.Sprintf("(%s %s %s)", t.op, t.a, t.b)
	}
	return fmt.Sprintf("(%s %s %d)", t.op, t.a, t.imm)
}

// smear extends a varbits mask upward from its lowest set bit, modeling
// carry propagation: once any input bit below position k may vary, an
// addition can disturb every bit at or above it.
func smear(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	lowest := v & -v
	return ^(lowest - 1)
}

// opVarbits computes a sound varbits mask for op applied to a and b
// (b == nil for immediate forms, with bImm the immediate's value view).
func opVarbits(op isa.Op, a, b *Term, imm int64) uint64 {
	bBase, bVar := uint64(imm), uint64(0)
	if b != nil {
		bBase, bVar = b.base, b.varbits
	}
	both := a.varbits | bVar
	switch op {
	case isa.AND, isa.ANDI:
		bOne := bBase | bVar
		aOne := a.base | a.varbits
		return (a.varbits & bOne) | (bVar & aOne)
	case isa.OR, isa.ORI:
		bZero := ^bBase | bVar
		aZero := ^a.base | a.varbits
		return (a.varbits & bZero) | (bVar & aZero)
	case isa.XOR, isa.XORI:
		return both
	case isa.ADD, isa.ADDI, isa.SUB:
		return smear(both)
	case isa.MUL:
		return smear(both)
	case isa.ADDW, isa.SUBW:
		return smear(both) & 0xFFFFFFFF
	case isa.SHLI:
		return a.varbits << (uint64(imm) & 63)
	case isa.SHRI:
		return a.varbits >> (uint64(imm) & 63)
	case isa.SRAI:
		s := uint64(imm) & 63
		v := a.varbits >> s
		if a.varbits>>63 != 0 && s > 0 {
			v |= ^uint64(0) << (64 - s)
		}
		return v
	case isa.SHL, isa.SHR, isa.SRA:
		if bVar == 0 {
			s := bBase & 63
			switch op {
			case isa.SHL:
				return a.varbits << s
			case isa.SHR:
				return a.varbits >> s
			default: // SRA
				v := a.varbits >> s
				if a.varbits>>63 != 0 && s > 0 {
					v |= ^uint64(0) << (64 - s)
				}
				return v
			}
		}
		if a.varbits == 0 && bVar == 0 {
			return 0
		}
		return ^uint64(0)
	case isa.ROLW, isa.RORW:
		if both == 0 {
			return 0
		}
		return 0xFFFFFFFF
	case isa.SLT, isa.SLTU, isa.SLTI, isa.MIN, isa.MAX, isa.MINU, isa.MAXU,
		isa.DIV, isa.REM:
		if both == 0 {
			return 0
		}
		if op == isa.SLT || op == isa.SLTU || op == isa.SLTI {
			return 1
		}
		return ^uint64(0)
	}
	// Unknown operation: assume everything may vary (sound).
	if both == 0 {
		return 0
	}
	return ^uint64(0)
}

// fold computes op(a, b/imm)'s value at the all-zero secret and its
// varbits. A zero varbits means the result is the constant base: both
// operands are concrete, or the secret provably cannot influence any
// result bit, so the value at the all-zero secret is the value everywhere.
func fold(op isa.Op, a, b *Term, imm int64) (base, varbits uint64) {
	var bBase uint64
	if b != nil {
		bBase = b.base
	}
	base = emu.ALU(op, a.base, bBase, imm)
	if a.kind == kConst && (b == nil || b.kind == kConst) {
		return base, 0
	}
	return base, opVarbits(op, a, b, imm)
}

// Op2 applies a register-register ALU operation to two terms.
func Op2(op isa.Op, a, b *Term) *Term { return heapTerms.newOp(op, a, b, 0) }

// OpImm applies a register-immediate ALU operation to a term.
func OpImm(op isa.Op, a *Term, imm int64) *Term { return heapTerms.newOp(op, a, nil, imm) }

// termSlab allocates terms from fixed-capacity chunks it owns. A chunk
// never grows, so a term's address is stable for the slab's life
// (termCtx.memo keys on it); reset recycles every chunk, which is what
// lets the enumeration fallback's replays run without allocating. A nil
// slab allocates each term on the heap: the package-level constructors
// and a machine share one folding path either way.
type termSlab struct {
	chunks [][]Term
	n      int // terms handed out since the last reset
}

// slabChunk is the capacity of one slab chunk.
const slabChunk = 128

// heapTerms is the nil slab behind Const, Op2 and OpImm.
var heapTerms *termSlab

func (s *termSlab) alloc() *Term {
	if s == nil {
		return new(Term)
	}
	c, i := s.n/slabChunk, s.n%slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Term, slabChunk))
	}
	s.n++
	return &s.chunks[c][i]
}

// reset recycles every term handed out. No term from before the reset may
// be referenced after it.
func (s *termSlab) reset() { s.n = 0 }

// newConst builds a concrete term; byte values share smallConsts.
func (s *termSlab) newConst(v uint64) *Term {
	if v < uint64(len(smallConsts)) {
		return &smallConsts[v]
	}
	t := s.alloc()
	*t = Term{kind: kConst, val: v, base: v}
	return t
}

// newOp builds op(a, b/imm), folding to a constant when fold proves the
// result secret-independent.
func (s *termSlab) newOp(op isa.Op, a, b *Term, imm int64) *Term {
	base, vb := fold(op, a, b, imm)
	if vb == 0 {
		return s.newConst(base)
	}
	t := s.alloc()
	*t = Term{kind: kOp, op: op, a: a, b: b, imm: imm, base: base, varbits: vb}
	return t
}

// Eval substitutes concrete secret bytes into the term. Substitution
// commutes with construction: Eval(Op2(op,a,b), s) equals
// emu.ALU(op, Eval(a,s), Eval(b,s), imm) by definition, which is the
// property the package's tests pin against the concrete emulator.
func (t *Term) Eval(secret []byte) uint64 {
	switch t.kind {
	case kConst:
		return t.val
	case kSecret:
		i := int(t.val)
		if i < len(secret) {
			return uint64(secret[i])
		}
		return 0
	case kVec:
		return t.vec[domainIndex(secret)]
	}
	var b uint64
	if t.b != nil {
		b = t.b.Eval(secret)
	}
	return emu.ALU(t.op, t.a.Eval(secret), b, t.imm)
}

// domainIndex maps concrete secret bytes to their index in the canonical
// enumeration order (little-endian: byte 0 is the least significant).
func domainIndex(secret []byte) int {
	idx := 0
	for i := len(secret) - 1; i >= 0; i-- {
		idx = idx<<8 | int(secret[i])
	}
	return idx
}

// domainSecret is the inverse of domainIndex for a given byte width.
func domainSecret(idx, nbytes int) []byte {
	s := make([]byte, nbytes)
	for i := 0; i < nbytes; i++ {
		s[i] = byte(idx >> (8 * i))
	}
	return s
}

// maxEnumBytes bounds exhaustive evaluation: a 2-byte secret enumerates
// 65536 points, which is still cheap for gadget-sized terms; anything
// wider must be decided by varbits alone or reported Unknown.
const maxEnumBytes = 2

// termCtx memoizes per-analysis term evaluations over the whole secret
// domain. One context serves one Verify call; sharing the vectors across
// terms makes exhaustive uniformity checks linear in DAG size.
type termCtx struct {
	nbytes int
	size   int
	memo   map[*Term][]uint64
}

func newTermCtx(secretBytes int) *termCtx {
	size := 1
	for i := 0; i < secretBytes; i++ {
		size <<= 8
	}
	return &termCtx{nbytes: secretBytes, size: size, memo: map[*Term][]uint64{}}
}

// vals returns the term's value at every point of the secret domain.
func (c *termCtx) vals(t *Term) []uint64 {
	if t.kind == kConst {
		v := make([]uint64, c.size)
		for i := range v {
			v[i] = t.val
		}
		return v
	}
	if v, ok := c.memo[t]; ok {
		return v
	}
	v := make([]uint64, c.size)
	switch t.kind {
	case kSecret:
		byteIdx := int(t.val)
		for i := range v {
			v[i] = uint64(byte(i >> (8 * byteIdx)))
		}
	case kVec:
		copy(v, t.vec)
	case kOp:
		av := c.vals(t.a)
		if t.b != nil {
			bv := c.vals(t.b)
			for i := range v {
				v[i] = emu.ALU(t.op, av[i], bv[i], t.imm)
			}
		} else {
			for i := range v {
				v[i] = emu.ALU(t.op, av[i], 0, t.imm)
			}
		}
	}
	c.memo[t] = v
	return v
}

// vecTerm wraps a per-secret value table as a term, folding when uniform.
func (c *termCtx) vecTerm(vals []uint64) *Term {
	uniform := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return Const(vals[0])
	}
	var vb uint64
	for _, v := range vals {
		vb |= v ^ vals[0]
	}
	vec := make([]uint64, len(vals))
	copy(vec, vals)
	return &Term{kind: kVec, vec: vec, base: vals[0], varbits: vb}
}

// uniform reports whether the term takes one value across the whole
// secret domain, and returns that value when it does. varbits answers the
// common case without enumeration; exhaustive evaluation decides the rest.
func (c *termCtx) uniform(t *Term) (uint64, bool) {
	if t.varbits == 0 {
		return t.base, true
	}
	vals := c.vals(t)
	for _, v := range vals[1:] {
		if v != vals[0] {
			return 0, false
		}
	}
	return vals[0], true
}

// witnessPair finds two secret assignments on which the term differs,
// scanning in canonical domain order so witnesses are deterministic.
func (c *termCtx) witnessPair(t *Term) (a, b []byte, ok bool) {
	vals := c.vals(t)
	for i, v := range vals[1:] {
		if v != vals[0] {
			return domainSecret(0, c.nbytes), domainSecret(i+1, c.nbytes), true
		}
	}
	return nil, nil, false
}
