package symx

import (
	"fmt"

	"spt/internal/emu"
	"spt/internal/isa"
)

// SecretSpec locates the symbolic secret in the program's data image.
type SecretSpec struct {
	// Addr is the byte address of the secret's first byte.
	Addr uint64
	// Size is the secret's width in bytes. Widths up to maxEnumBytes are
	// decided exactly (the enumeration fallback covers the whole domain);
	// wider secrets are only decided when the bit-level analysis proves
	// independence, and report Unknown otherwise.
	Size int
}

// Config parameterizes verification.
type Config struct {
	// Secret locates the symbolic secret bytes.
	Secret SecretSpec
	// SquashDepth bounds how many instructions a transient episode
	// executes before the squash; it plays the role of the ROB capacity.
	// Default 192, the pipeline's default ROB size.
	SquashDepth int
	// MaxSteps bounds the architectural run (default 1<<16, matching the
	// differential oracle's non-termination bound).
	MaxSteps int
	// MaxWork bounds total executed instructions across the architectural
	// run, every transient episode, and every enumeration replay; it is
	// the defense against adversarial inputs. Default 1<<22.
	MaxWork int64
	// MispredictTaken additionally explores the taken path of
	// architecturally not-taken branches (an adversarially pre-trained
	// predictor). The default false models the pipeline's cold static
	// not-taken prediction, which is what the differential oracle
	// exercises; enabling it strengthens the verdict but can report leaks
	// a cold-predictor concrete replay cannot reproduce.
	MispredictTaken bool
}

func (c Config) withDefaults() Config {
	if c.Secret.Size == 0 {
		c.Secret.Size = 1
	}
	if c.SquashDepth == 0 {
		c.SquashDepth = 192
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 16
	}
	if c.MaxWork == 0 {
		c.MaxWork = 1 << 22
	}
	return c
}

// protClass is the abstract protection a scheme provides inside a
// transient episode. The abstraction is relational, not cycle-accurate:
// it models which squashed-path observations can become attacker-visible,
// which is the only thing a noninterference verdict depends on.
type protClass uint8

const (
	// protNone: every transient observation is attacker-visible (the
	// unsafe baseline, and memory speculation under the Spectre model,
	// which that threat model does not cover).
	protNone protClass = iota
	// protTaint: STT's rule. Data returned by loads issued inside the
	// episode is tainted; a transmitter (load/store address operand,
	// branch condition, jump target) reading tainted data is delayed past
	// the squash and never observed. Data that was architecturally live
	// before the episode is untainted — exactly the paper's §3 gap.
	protTaint
	// protDelayAll: the SPT family. SPT taints all data until it has been
	// non-speculatively leaked; a squashed path can only transmit values
	// the architectural trace already revealed, so no squashed-path
	// observation can add secret-dependent information. The untaint
	// optimizations (fwd/bwd/shadow) trade performance, not leakage, so
	// secure, spt-fwd, spt-bwd, spt, spt-shadowmem and spt-ideal share
	// this class. Modeled as: transient episodes observe nothing.
	protDelayAll
)

// policy is the per-episode-kind protection for one (scheme, model) cell.
type policy struct {
	ctl protClass // episodes opened by control-flow misprediction
	mem protClass // episodes opened by memory speculation (store bypass)
}

// policyFor maps a (scheme, model) cell to its abstract protection. The
// scheme set mirrors internal/fuzz.SchemeNames.
func policyFor(scheme, model string) (policy, error) {
	var base protClass
	switch scheme {
	case "unsafe":
		base = protNone
	case "stt":
		base = protTaint
	case "secure", "spt-fwd", "spt-bwd", "spt", "spt-shadowmem", "spt-ideal":
		base = protDelayAll
	default:
		return policy{}, fmt.Errorf("symx: unknown scheme %q", scheme)
	}
	p := policy{ctl: base, mem: base}
	switch model {
	case "futuristic":
	case "spectre":
		// Memory speculation is outside the Spectre threat model: no
		// scheme defends the store-bypass window there.
		p.mem = protNone
	default:
		return policy{}, fmt.Errorf("symx: unknown attack model %q", model)
	}
	return p, nil
}

// episodeKind distinguishes what opened a transient episode, which
// determines whether control flow inside it can ever resolve: branch
// resolution is strictly in program order, so nothing younger than an
// unresolved mispredicted branch (ctlEpisode) redirects fetch, whereas in
// a store-bypass window (memEpisode) the bypassing control flow is the
// oldest unresolved instruction and resolves normally.
type episodeKind uint8

const (
	ctlEpisode episodeKind = iota
	memEpisode
)

// Event is one entry of the speculative observation trace: the address of
// a load line access ('L', line-masked), a store address translation
// ('T', page-masked), a retirement cache write ('W', line-masked) — the
// same kinds and masks the pipeline's observer emits — plus 'B', a
// resolved-mispredict fetch redirect inside a memory-speculation episode
// (observable in the pipeline as the squash-and-replay of younger
// accesses). Addr is a term over the secret; the relational check is that
// every event's value, and the trace's shape, is secret-independent.
type Event struct {
	Kind byte
	Addr *Term
	// Spec marks events emitted inside a transient episode.
	Spec bool
	// PC is the static program counter of the emitting instruction.
	PC uint64
}

const (
	lineMask = ^int64(63)
	pageMask = ^int64(0xFFF)
)

// cEvent is a concrete trace entry (enumeration and witness replays).
type cEvent struct {
	Kind byte
	Addr uint64
}

func (e cEvent) String() string { return fmt.Sprintf("%c@%#x", e.Kind, e.Addr) }

// ErrArchLeak reports a contract violation: the program's architectural
// execution itself depends on the secret (a secret-dependent branch,
// address, or stored value), so it is outside the constant-time-victim
// contract and a trace divergence would not be a speculation leak. The
// differential oracle rejects such programs the same way (its
// arch-sameness precheck).
type ErrArchLeak struct {
	What    string
	PC      uint64
	SecretA []byte
	SecretB []byte
}

func (e ErrArchLeak) Error() string {
	return fmt.Sprintf("symx: architectural %s at pc %d depends on the secret (witness %#x vs %#x)",
		e.What, e.PC, e.SecretA, e.SecretB)
}

// errNonUniform aborts the symbolic pass when an execution decision (a
// transient branch direction, jump target, or store address) depends on
// the secret: the paths diverge per secret value, so one symbolic trace
// cannot represent them and verification falls back to exhaustive
// concrete enumeration of the secret domain.
type errNonUniform struct {
	what string
	pc   uint64
}

func (e errNonUniform) Error() string {
	return fmt.Sprintf("symx: %s at pc %d is secret-dependent; falling back to enumeration", e.what, e.pc)
}

// errBudget reports work-bound exhaustion (adversarial input defense).
type errBudget struct{}

func (errBudget) Error() string { return "symx: work budget exhausted" }

// image is a program's initial data memory: the program's own segments,
// read in place. Every machine one Verify or ObservationEvents call runs
// shares it read-only: the symbolic pass, confirm's two replays, and all
// the enumeration replays of the secret domain. No machine writes it; each
// keeps its secret bytes and its own stores in a private map.
type image []isa.Segment

func newImage(prog *isa.Program) image { return prog.Data }

// at returns the image byte at a; validated segments do not overlap.
func (img image) at(a uint64) (byte, bool) {
	for _, seg := range img {
		if a-seg.Addr < uint64(len(seg.Bytes)) {
			return seg.Bytes[a-seg.Addr], true
		}
	}
	return 0, false
}

// machine executes one program under the relational speculative
// semantics. The same code path serves the symbolic pass (secret bytes
// are kSecret leaves) and the enumeration fallback (secret bytes are
// constants, so every term folds and every decision is trivially
// uniform); the property tests pin that substituting a concrete secret
// into the symbolic run reproduces the concrete run exactly.
type machine struct {
	prog *isa.Program
	cfg  Config
	pol  policy
	// ctx is the enumeration context for narrow secrets; nil when the
	// secret is too wide to enumerate (then only varbits can decide) and
	// in concrete replays (where every term folds).
	ctx    *termCtx
	budget *int64
	// terms allocates every term the run builds.
	terms termSlab

	regs [isa.NumRegs]*Term
	// mem holds the secret bytes and this machine's architectural stores;
	// a byte absent here reads from img, the shared program image.
	mem map[uint64]*Term
	img image
	// overlay holds the current transient episode's stores, and specRAS
	// its return-address stack.
	overlay map[uint64]*Term
	specRAS []uint64
	ras     []uint64
	trace   []Event
	digest  uint64 // FNV-1a over the architectural execution, as in fuzz.archDigest
}

var zeroTerm = Const(0)

// newMachine builds a machine for prog on its data image img; reset
// readies it for a run.
func newMachine(prog *isa.Program, img image, pol policy, cfg Config, ctx *termCtx, budget *int64) *machine {
	return &machine{prog: prog, pol: pol, cfg: cfg, ctx: ctx, budget: budget,
		mem: map[uint64]*Term{}, img: img, overlay: map[uint64]*Term{}}
}

// reset readies the machine for a run: secret == nil runs symbolically;
// otherwise the given concrete secret bytes are patched in. Registers,
// return stack, trace and private memory start empty, and the slab is
// recycled; each episode empties the overlay as it opens. The enumeration
// fallback resets one machine per domain point. Only a concrete machine
// may be reset after a run: a symbolic one's terms key its termCtx memo.
func (m *machine) reset(secret []byte) {
	for i := range m.regs {
		m.regs[i] = zeroTerm
	}
	m.ras = m.ras[:0]
	m.trace = m.trace[:0]
	clear(m.mem)
	m.terms.reset()
	m.digest = 14695981039346656037
	for i := 0; i < m.cfg.Secret.Size; i++ {
		a := m.cfg.Secret.Addr + uint64(i)
		if secret == nil {
			m.mem[a] = SecretByte(i)
		} else {
			m.mem[a] = Const(uint64(secret[i]))
		}
	}
}

// concreteEvents evaluates a finished concrete run's trace at its secret.
func (m *machine) concreteEvents(secret []byte) []cEvent {
	out := make([]cEvent, len(m.trace))
	for i, ev := range m.trace {
		out[i] = cEvent{Kind: ev.Kind, Addr: ev.Addr.Eval(secret)}
	}
	return out
}

// konst, op2 and opImm build the run's terms on its slab.
func (m *machine) konst(v uint64) *Term { return m.terms.newConst(v) }

func (m *machine) op2(op isa.Op, a, b *Term) *Term { return m.terms.newOp(op, a, b, 0) }

func (m *machine) opImm(op isa.Op, a *Term, imm int64) *Term { return m.terms.newOp(op, a, nil, imm) }

func (m *machine) mix(v uint64) {
	m.digest ^= v
	m.digest *= 1099511628211
}

func (m *machine) spend() error {
	*m.budget--
	if *m.budget < 0 {
		return errBudget{}
	}
	return nil
}

// memByte reads one byte term: an episode overlay first, then the
// machine's own bytes, then the program image.
func (m *machine) memByte(overlay map[uint64]*Term, a uint64) *Term {
	if overlay != nil {
		if t, ok := overlay[a]; ok {
			return t
		}
	}
	if t, ok := m.mem[a]; ok {
		return t
	}
	if b, ok := m.img.at(a); ok {
		return Const(uint64(b))
	}
	return zeroTerm
}

// readMem assembles a little-endian load of size bytes at a concrete
// address. An all-constant word, every load of a concrete run, is built
// directly; a word with a symbolic byte goes through readMemBytes.
func (m *machine) readMem(overlay map[uint64]*Term, addr uint64, size int) *Term {
	var v uint64
	for i := 0; i < size; i++ {
		c, ok := m.memByte(overlay, addr+uint64(i)).ConstVal()
		if !ok {
			return m.readMemBytes(overlay, addr, size)
		}
		v |= c << (8 * i)
	}
	return m.konst(v)
}

// readMemBytes assembles the load as a shift-and-OR term over its bytes.
func (m *machine) readMemBytes(overlay map[uint64]*Term, addr uint64, size int) *Term {
	if size == 1 {
		return m.memByte(overlay, addr)
	}
	acc := zeroTerm
	for i := 0; i < size; i++ {
		b := m.memByte(overlay, addr+uint64(i))
		if i > 0 {
			b = m.opImm(isa.SHLI, b, int64(8*i))
		}
		acc = m.op2(isa.OR, acc, b)
	}
	return acc
}

// writeMem decomposes a store into byte terms: a constant splits directly
// into shared byte constants, a symbolic value goes through writeMemBytes.
func (m *machine) writeMem(dst map[uint64]*Term, addr uint64, size int, v *Term) {
	c, ok := v.ConstVal()
	if !ok {
		m.writeMemBytes(dst, addr, size, v)
		return
	}
	for i := 0; i < size; i++ {
		dst[addr+uint64(i)] = Const(c >> (8 * i) & 0xFF)
	}
}

// writeMemBytes stores each byte as a shift-and-mask term of v.
func (m *machine) writeMemBytes(dst map[uint64]*Term, addr uint64, size int, v *Term) {
	for i := 0; i < size; i++ {
		b := v
		if i > 0 {
			b = m.opImm(isa.SHRI, b, int64(8*i))
		}
		dst[addr+uint64(i)] = m.opImm(isa.ANDI, b, 0xFF)
	}
}

// readMemVec resolves a load whose address varies with the secret: the
// per-secret addresses are each read at their own domain point, yielding
// an explicit value table (folded if it happens to be uniform, as it is
// when the whole target region holds one value — e.g. a cold probe
// array).
func (m *machine) readMemVec(overlay map[uint64]*Term, addrVals []uint64, size int) *Term {
	out := make([]uint64, len(addrVals))
	for i, a := range addrVals {
		var v uint64
		for k := 0; k < size; k++ {
			bt := m.memByte(overlay, a+uint64(k))
			var bv uint64
			if c, ok := bt.ConstVal(); ok {
				bv = c
			} else {
				bv = m.ctx.vals(bt)[i]
			}
			v |= (bv & 0xFF) << (8 * k)
		}
		out[i] = v
	}
	return m.ctx.vecTerm(out)
}

// uniform decides whether a term is secret-independent, with its value.
func (m *machine) uniform(t *Term) (uint64, bool) {
	if t.varbits == 0 {
		return t.base, true
	}
	if m.ctx == nil {
		return 0, false
	}
	return m.ctx.uniform(t)
}

// branchDir evaluates a conditional branch predicate relationally. The
// returned witness points are two secrets on which the direction differs
// (non-uniform case only).
func (m *machine) branchDir(op isa.Op, a, b *Term) (taken, uniform bool, wa, wb []byte) {
	if a.varbits == 0 && b.varbits == 0 {
		return emu.BranchTaken(op, a.base, b.base), true, nil, nil
	}
	if m.ctx == nil {
		return false, false, nil, nil
	}
	av, bv := m.ctx.vals(a), m.ctx.vals(b)
	first := emu.BranchTaken(op, av[0], bv[0])
	for i := 1; i < len(av); i++ {
		if emu.BranchTaken(op, av[i], bv[i]) != first {
			return false, false, domainSecret(0, m.ctx.nbytes), domainSecret(i, m.ctx.nbytes)
		}
	}
	return first, true, nil, nil
}

// witness produces a deterministic secret pair on which t differs,
// falling back to a generic pair when enumeration is unavailable.
func (m *machine) witness(t *Term) (a, b []byte) {
	if m.ctx != nil {
		if wa, wb, ok := m.ctx.witnessPair(t); ok {
			return wa, wb
		}
	}
	n := m.cfg.Secret.Size
	wa, wb := make([]byte, n), make([]byte, n)
	for i := range wb {
		wb[i] = 0xFF
	}
	return wa, wb
}

func (m *machine) emit(kind byte, addr *Term, spec bool, pc uint64) {
	m.trace = append(m.trace, Event{Kind: kind, Addr: addr, Spec: spec, PC: pc})
}

func isImmALU(op isa.Op) bool { return op >= isa.ADDI && op <= isa.SLTI }

// run executes the program architecturally, opening a transient episode
// at every speculation point, until HALT, an error, or the step bound.
func (m *machine) run() error {
	code := m.prog.Code
	m.mix(uint64(len(code)))
	pc := m.prog.Entry
	for steps := 0; ; steps++ {
		if steps >= m.cfg.MaxSteps {
			return fmt.Errorf("symx: %s did not terminate in %d steps", m.prog.Name, m.cfg.MaxSteps)
		}
		if err := m.spend(); err != nil {
			return err
		}
		if pc >= uint64(len(code)) {
			return emu.ErrPCOutOfRange{PC: pc}
		}
		ins := code[pc]
		m.mix(pc)
		next := pc + 1

		switch {
		case ins.Op == isa.HALT:
			return nil

		case ins.Op == isa.NOP:

		case ins.Op == isa.MOVI:
			m.setReg(ins.Rd, m.konst(uint64(ins.Imm)))

		case ins.Op == isa.MOV:
			m.setReg(ins.Rd, m.reg(ins.Rs1))

		case ins.IsLoad():
			addrT := m.opImm(isa.ADDI, m.reg(ins.Rs1), ins.Imm)
			addr, ok := m.uniform(addrT)
			if !ok {
				wa, wb := m.witness(addrT)
				return ErrArchLeak{What: "load address", PC: pc, SecretA: wa, SecretB: wb}
			}
			m.mix(addr)
			m.emit('L', m.opImm(isa.ANDI, addrT, lineMask), false, pc)
			m.setReg(ins.Rd, m.readMem(nil, addr, ins.MemSize()))

		case ins.IsStore():
			addrT := m.opImm(isa.ADDI, m.reg(ins.Rs1), ins.Imm)
			addr, ok := m.uniform(addrT)
			if !ok {
				wa, wb := m.witness(addrT)
				return ErrArchLeak{What: "store address", PC: pc, SecretA: wa, SecretB: wb}
			}
			valT := m.reg(ins.Rs2)
			val, ok := m.uniform(valT)
			if !ok {
				wa, wb := m.witness(valT)
				return ErrArchLeak{What: "stored value", PC: pc, SecretA: wa, SecretB: wb}
			}
			m.mix(addr)
			m.mix(val)
			// Memory speculation: younger instructions issue before the
			// store commits, observing pre-store memory, then squash and
			// replay. The episode runs first (its events precede the
			// store's own translation in the pipeline) on pre-store state.
			if err := m.episode(next, memEpisode, m.pol.mem); err != nil {
				return err
			}
			m.emit('T', m.opImm(isa.ANDI, addrT, pageMask), false, pc)
			m.emit('W', m.opImm(isa.ANDI, addrT, lineMask), false, pc)
			m.writeMem(m.mem, addr, ins.MemSize(), valT)

		case ins.IsCondBranch():
			taken, ok, wa, wb := m.branchDir(ins.Op, m.reg(ins.Rs1), m.reg(ins.Rs2))
			if !ok {
				if wa == nil {
					wa, wb = m.witness(m.op2(isa.XOR, m.reg(ins.Rs1), m.reg(ins.Rs2)))
				}
				return ErrArchLeak{What: "branch direction", PC: pc, SecretA: wa, SecretB: wb}
			}
			if taken {
				m.mix(1)
				// Cold static prediction is not-taken: the fall-through
				// path runs transiently.
				if err := m.episode(pc+1, ctlEpisode, m.pol.ctl); err != nil {
					return err
				}
				next = pc + uint64(ins.Imm)
			} else {
				m.mix(2)
				if m.cfg.MispredictTaken {
					// Adversarially trained predictor: explore the taken
					// path even though the architectural run falls through.
					if err := m.episode(pc+uint64(ins.Imm), ctlEpisode, m.pol.ctl); err != nil {
						return err
					}
				}
			}

		case ins.Op == isa.JAL:
			if ins.IsCall() {
				m.ras = append(m.ras, pc+1)
			}
			m.setReg(ins.Rd, m.konst(pc+1))
			next = pc + uint64(ins.Imm)

		case ins.Op == isa.JALR:
			targetT := m.opImm(isa.ADDI, m.reg(ins.Rs1), ins.Imm)
			target, ok := m.uniform(targetT)
			if !ok {
				wa, wb := m.witness(targetT)
				return ErrArchLeak{What: "jump target", PC: pc, SecretA: wa, SecretB: wb}
			}
			m.mix(target)
			predicted := pc + 1
			if ins.IsReturn() && len(m.ras) > 0 {
				predicted = m.ras[len(m.ras)-1]
				m.ras = m.ras[:len(m.ras)-1]
			}
			if ins.IsCall() {
				m.ras = append(m.ras, pc+1)
			}
			m.setReg(ins.Rd, m.konst(pc+1))
			if predicted != target {
				// The return-address stack (returns) or fall-through
				// fetch (BTB-cold indirect jumps) predicts the wrong
				// target: the predicted path runs transiently.
				if err := m.episode(predicted, ctlEpisode, m.pol.ctl); err != nil {
					return err
				}
			}
			next = target

		case isImmALU(ins.Op):
			m.setReg(ins.Rd, m.opImm(ins.Op, m.reg(ins.Rs1), ins.Imm))

		default:
			m.setReg(ins.Rd, m.op2(ins.Op, m.reg(ins.Rs1), m.reg(ins.Rs2)))
		}
		pc = next
	}
}

func (m *machine) reg(r isa.Reg) *Term {
	if r == isa.Zero {
		return zeroTerm
	}
	return m.regs[r]
}

func (m *machine) setReg(r isa.Reg, t *Term) {
	if r != isa.Zero {
		m.regs[r] = t
	}
}

// episode executes a transient path from start until the squash depth, a
// halt, or a fetch fault, emitting the observations the protection class
// lets through. Architectural state is untouched: registers are copied
// and memory writes go to an overlay. Speculation does not nest — an
// episode models the oldest unresolved prediction, whose squash discards
// everything younger, so nested windows cannot outlive it.
func (m *machine) episode(start uint64, kind episodeKind, prot protClass) error {
	if prot == protDelayAll {
		// Every transmitter waits for its operands to be untainted, which
		// for data never non-speculatively leaked means: past the squash.
		// The squashed path observes nothing.
		return nil
	}
	code := m.prog.Code
	regs := m.regs
	m.specRAS = append(m.specRAS[:0], m.ras...)
	clear(m.overlay)
	overlay := m.overlay
	// taint marks registers whose value was produced by a load issued
	// inside this episode (STT's speculative taint); poison marks
	// registers whose producing load was itself delayed, so the value
	// never arrives and dependents cannot execute at all.
	var taint, poison [isa.NumRegs]bool

	tainted := func(rs ...isa.Reg) bool {
		for _, r := range rs {
			if taint[r] {
				return true
			}
		}
		return false
	}
	poisoned := func(rs ...isa.Reg) bool {
		for _, r := range rs {
			if poison[r] {
				return true
			}
		}
		return false
	}
	set := func(r isa.Reg, t *Term, tnt, psn bool) {
		if r != isa.Zero {
			regs[r] = t
			taint[r] = tnt
			poison[r] = psn
		}
	}
	get := func(r isa.Reg) *Term {
		if r == isa.Zero {
			return zeroTerm
		}
		return regs[r]
	}
	// resolves combines the in-order-resolution rule (nothing younger
	// than a ctlEpisode opener redirects fetch) with the scheme's delay
	// of the decision's operands.
	resolves := func(srcs ...isa.Reg) bool {
		if kind == ctlEpisode {
			return false
		}
		return !(poisoned(srcs...) || (prot == protTaint && tainted(srcs...)))
	}

	pc := start
	for depth := 0; depth < m.cfg.SquashDepth; depth++ {
		if pc >= uint64(len(code)) {
			return nil // transient fetch fault: the window just squashes
		}
		if err := m.spend(); err != nil {
			return err
		}
		ins := code[pc]
		next := pc + 1

		switch {
		case ins.Op == isa.HALT:
			return nil

		case ins.Op == isa.NOP:

		case ins.Op == isa.MOVI:
			set(ins.Rd, m.konst(uint64(ins.Imm)), false, false)

		case ins.Op == isa.MOV:
			set(ins.Rd, get(ins.Rs1), taint[ins.Rs1], poison[ins.Rs1])

		case ins.IsLoad():
			if poisoned(ins.Rs1) || (prot == protTaint && tainted(ins.Rs1)) {
				// The address operand never becomes ready (poison) or the
				// scheme delays the access past the squash (taint): the
				// load neither executes nor observes, and its dependents
				// never wake up.
				set(ins.Rd, zeroTerm, true, true)
				break
			}
			addrT := m.opImm(isa.ADDI, get(ins.Rs1), ins.Imm)
			m.emit('L', m.opImm(isa.ANDI, addrT, lineMask), true, pc)
			var val *Term
			if addr, ok := m.uniform(addrT); ok {
				val = m.readMem(overlay, addr, ins.MemSize())
			} else {
				if m.ctx == nil {
					return errNonUniform{what: "transient load address", pc: pc}
				}
				val = m.readMemVec(overlay, m.ctx.vals(addrT), ins.MemSize())
			}
			set(ins.Rd, val, true, false)

		case ins.IsStore():
			if poisoned(ins.Rs1) || (prot == protTaint && tainted(ins.Rs1)) {
				break // the translation (the observable event) is delayed past squash
			}
			addrT := m.opImm(isa.ADDI, get(ins.Rs1), ins.Imm)
			m.emit('T', m.opImm(isa.ANDI, addrT, pageMask), true, pc)
			// No 'W': the retirement write never happens on a squashed path.
			addr, ok := m.uniform(addrT)
			if !ok {
				return errNonUniform{what: "transient store address", pc: pc}
			}
			if !poisoned(ins.Rs2) {
				m.writeMem(overlay, addr, ins.MemSize(), get(ins.Rs2))
			}

		case ins.IsCondBranch():
			if !resolves(ins.Rs1, ins.Rs2) {
				// The branch cannot resolve inside the window (it is
				// younger than the unresolved opener, or its condition is
				// delayed): fetch keeps following the static not-taken
				// prediction.
				break
			}
			taken, ok, _, _ := m.branchDir(ins.Op, get(ins.Rs1), get(ins.Rs2))
			if !ok {
				return errNonUniform{what: "transient branch direction", pc: pc}
			}
			if taken {
				// Direction mispredict inside the window: the resolve
				// squashes and refetches, which the receiver observes as
				// the replay of younger accesses.
				m.emit('B', m.konst(pc+uint64(ins.Imm)), true, pc)
				next = pc + uint64(ins.Imm)
			}

		case ins.Op == isa.JAL:
			if ins.IsCall() {
				m.specRAS = append(m.specRAS, pc+1)
			}
			set(ins.Rd, m.konst(pc+1), false, false)
			next = pc + uint64(ins.Imm)

		case ins.Op == isa.JALR:
			predicted := pc + 1
			if ins.IsReturn() && len(m.specRAS) > 0 {
				predicted = m.specRAS[len(m.specRAS)-1]
				m.specRAS = m.specRAS[:len(m.specRAS)-1]
			}
			if ins.IsCall() {
				m.specRAS = append(m.specRAS, pc+1)
			}
			if !resolves(ins.Rs1) {
				set(ins.Rd, m.konst(pc+1), false, false)
				next = predicted
				break
			}
			targetT := m.opImm(isa.ADDI, get(ins.Rs1), ins.Imm)
			target, ok := m.uniform(targetT)
			if !ok {
				return errNonUniform{what: "transient jump target", pc: pc}
			}
			set(ins.Rd, m.konst(pc+1), false, false)
			if target != predicted {
				m.emit('B', m.konst(target), true, pc)
			}
			next = target

		case isImmALU(ins.Op):
			set(ins.Rd, m.opImm(ins.Op, get(ins.Rs1), ins.Imm), taint[ins.Rs1], poison[ins.Rs1])

		default:
			set(ins.Rd, m.op2(ins.Op, get(ins.Rs1), get(ins.Rs2)),
				taint[ins.Rs1] || taint[ins.Rs2], poison[ins.Rs1] || poison[ins.Rs2])
		}
		pc = next
	}
	return nil
}
