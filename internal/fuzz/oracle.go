package fuzz

import (
	"fmt"

	"spt/internal/attack"
	"spt/internal/emu"
	"spt/internal/isa"
)

// PatchSecret returns a copy of prog with the byte at attack.SecretAddr
// set to secret. Generated programs keep the secret purely in the data
// image, so the two differential twins share identical code.
func PatchSecret(prog *isa.Program, secret byte) *isa.Program {
	q := *prog
	q.Data = make([]isa.Segment, len(prog.Data))
	for i, seg := range prog.Data {
		bytes := make([]byte, len(seg.Bytes))
		copy(bytes, seg.Bytes)
		if seg.Addr <= attack.SecretAddr && attack.SecretAddr < seg.Addr+uint64(len(bytes)) {
			bytes[attack.SecretAddr-seg.Addr] = secret
		}
		q.Data[i] = isa.Segment{Addr: seg.Addr, Bytes: bytes}
	}
	return &q
}

// archSteps bounds the functional run; generated programs are loop-free
// and tiny, so anything past this is a broken candidate.
const archSteps = 1 << 16

// archDigest runs prog on the functional emulator and hashes everything an
// architectural observer sees: the retired PC sequence, every conditional
// branch outcome, every memory access address, and every stored value
// (FNV-1a). Branch outcomes are hashed separately from the PC sequence
// because a taken branch with offset 1 lands on the same PC as its
// fall-through — architecturally a no-op, but the direction mispredict
// still squashes and replays younger accesses, which no scheme hides. A
// secret-dependent condition is a constant-time violation by the victim,
// outside Definition 1's contract, so the oracle must reject it.
//
// A candidate that never halts is reported as soon as its machine repeats
// a state, not after archSteps steps. Step reads only the PC, the
// registers and memory, so a repeated state means a cycle that runs until
// the bound, and the error is the bound's. The check is Brent's: the PC
// and registers are saved at every power-of-two step count, and a later
// step that matches them with no memory byte changed since the save
// closes the cycle. A store changes memory only if the bytes it
// overwrites differ from its size-truncated value.
func archDigest(prog *isa.Program) (uint64, error) {
	e := emu.New(prog)
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	var (
		savedPC   uint64
		savedRegs [isa.NumRegs]uint64
		nextSave  = 1
		memSame   bool // no store changed memory since the save
	)
	for steps := 0; !e.State.Halted; steps++ {
		pc := e.State.PC
		if steps >= archSteps || memSame && pc == savedPC && e.State.Regs == savedRegs {
			return 0, fmt.Errorf("fuzz: %s did not terminate in %d steps", prog.Name, archSteps)
		}
		if steps == nextSave {
			savedPC, savedRegs, memSame = pc, e.State.Regs, true
			nextSave *= 2
		}
		if pc >= uint64(len(prog.Code)) {
			return 0, emu.ErrPCOutOfRange{PC: pc}
		}
		ins := prog.Code[pc]
		mix(pc)
		if ins.IsCondBranch() {
			if emu.BranchTaken(ins.Op, e.State.Regs[ins.Rs1], e.State.Regs[ins.Rs2]) {
				mix(1)
			} else {
				mix(2)
			}
		}
		if ins.IsMem() {
			addr := e.State.Regs[ins.Rs1] + uint64(ins.Imm)
			mix(addr)
			if ins.IsStore() {
				v := e.State.Regs[ins.Rs2]
				mix(v)
				if size := ins.MemSize(); memSame && e.State.Mem.Read(addr, size) != v&(1<<(8*size)-1) {
					memSame = false
				}
			}
		}
		if err := e.Step(); err != nil {
			return 0, err
		}
	}
	return h, nil
}

// ArchSame reports whether two programs have identical architectural
// executions (same control flow, memory addresses and stored values).
// When it holds, the secret is never transmitted non-speculatively, so
// any observation-trace divergence is a transient-execution leak.
func ArchSame(a, b *isa.Program) (bool, error) {
	da, err := archDigest(a)
	if err != nil {
		return false, err
	}
	db, err := archDigest(b)
	if err != nil {
		return false, err
	}
	return da == db, nil
}

// Divergence pinpoints the first difference between two observation
// traces.
type Divergence struct {
	// Index of the first differing event.
	Index int
	// A and B are the events at Index ("" where a trace has ended).
	A, B string
	// LenA and LenB are the full trace lengths.
	LenA, LenB int
}

func (d *Divergence) String() string {
	if d == nil {
		return "traces identical"
	}
	ev := func(s string) string {
		if s == "" {
			return "<end>"
		}
		return s
	}
	return fmt.Sprintf("first divergence at event %d: %s vs %s (lengths %d/%d)",
		d.Index, ev(d.A), ev(d.B), d.LenA, d.LenB)
}

// DiffTraces compares two observation traces and returns the first
// divergent event, or nil if the traces are identical.
func DiffTraces(a, b []string) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return &Divergence{Index: i, A: a[i], B: b[i], LenA: len(a), LenB: len(b)}
		}
	}
	if len(a) != len(b) {
		d := &Divergence{Index: n, LenA: len(a), LenB: len(b)}
		if n < len(a) {
			d.A = a[n]
		}
		if n < len(b) {
			d.B = b[n]
		}
		return d
	}
	return nil
}

// Verdict is the oracle's answer for one (program, scheme, model) cell.
type Verdict struct {
	// Leaked is true when the observation traces diverge across secrets.
	Leaked bool
	// Div describes the first divergent event when Leaked.
	Div *Divergence
}

// CheckLeak runs the differential oracle: prog with SecretA and SecretB
// under the scheme's policy, diffing the observation traces. It first
// re-verifies the generator's arch-sameness contract on the functional
// emulator and errors out if the candidate violates it (such a program
// transmits its secret architecturally, so a divergence would not be a
// speculation leak).
func CheckLeak(prog *isa.Program, scheme, model string) (Verdict, error) {
	return CheckLeakWith(prog, scheme, model, SecretA, SecretB)
}

// CheckLeakWith is CheckLeak with an explicit secret pair. The symbolic
// oracle's leak witnesses are replayed through it: a cell where the
// default pair happens to collide is re-checked on the pair the
// relational analysis says must diverge.
func CheckLeakWith(prog *isa.Program, scheme, model string, secretA, secretB byte) (Verdict, error) {
	pa := PatchSecret(prog, secretA)
	pb := PatchSecret(prog, secretB)
	same, err := ArchSame(pa, pb)
	if err != nil {
		return Verdict{}, err
	}
	if !same {
		return Verdict{}, fmt.Errorf("fuzz: %s transmits its secret architecturally", prog.Name)
	}
	m, err := ModelByName(model)
	if err != nil {
		return Verdict{}, err
	}
	polA, err := PolicyByName(scheme)
	if err != nil {
		return Verdict{}, err
	}
	polB, err := PolicyByName(scheme)
	if err != nil {
		return Verdict{}, err
	}
	ta, err := attack.ObservationTrace(pa, m, polA)
	if err != nil {
		return Verdict{}, fmt.Errorf("fuzz: %s secret=%#x: %w", prog.Name, secretA, err)
	}
	tb, err := attack.ObservationTrace(pb, m, polB)
	if err != nil {
		return Verdict{}, fmt.Errorf("fuzz: %s secret=%#x: %w", prog.Name, secretB, err)
	}
	div := DiffTraces(ta, tb)
	return Verdict{Leaked: div != nil, Div: div}, nil
}
