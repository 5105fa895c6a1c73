package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"spt/internal/asm"
	"spt/internal/emu"
	"spt/internal/isa"
)

// archDigestStepwise is archDigest without the cycle check: it steps every
// program to HALT, an error, or the archSteps bound. archDigest is held to
// it.
func archDigestStepwise(prog *isa.Program) (uint64, error) {
	e := emu.New(prog)
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for steps := 0; !e.State.Halted; steps++ {
		if steps >= archSteps {
			return 0, fmt.Errorf("fuzz: %s did not terminate in %d steps", prog.Name, archSteps)
		}
		pc := e.State.PC
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
			mix(e.State.Regs[ins.Rs1] + uint64(ins.Imm))
			if ins.IsStore() {
				mix(e.State.Regs[ins.Rs2])
			}
		}
		if err := e.Step(); err != nil {
			return 0, err
		}
	}
	return h, nil
}

// sameDigest fails t unless archDigest and the stepwise reference agree
// on p, digest and error text. It reports whether p ran into the bound.
func sameDigest(t *testing.T, p *isa.Program) (bounded bool) {
	t.Helper()
	got, gotErr := archDigest(p)
	want, wantErr := archDigestStepwise(p)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
		t.Fatalf("%s: archDigest = %#x, %v; stepwise reference = %#x, %v", p.Name, got, gotErr, want, wantErr)
	}
	return wantErr != nil && strings.Contains(wantErr.Error(), "did not terminate")
}

// TestArchDigestMatchesStepwise holds the cycle check to the stepwise
// loop on every candidate the minimizer would try — each chunk size from
// half the program down to one, at every position — for 20 generated
// gadgets and the corpus programs, under both secrets. Deleting a range
// often removes a loop's exit, so many candidates never halt.
func TestArchDigestMatchesStepwise(t *testing.T) {
	var progs []*isa.Program
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, Generate(seed).Prog)
	}
	entries, err := LoadCorpus("../../testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		progs = append(progs, e.Prog)
	}
	candidates, bounded := 0, 0
	for _, p := range progs {
		for _, secret := range []byte{SecretA, SecretB} {
			base := PatchSecret(p, secret)
			sameDigest(t, base)
			for chunk := len(base.Code) / 2; chunk >= 1; chunk /= 2 {
				for lo := 0; lo+chunk <= len(base.Code); lo++ {
					cand, ok := removeRange(base, lo, chunk)
					if !ok {
						continue
					}
					candidates++
					if sameDigest(t, cand) {
						bounded++
					}
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatalf("none of %d candidates ran into the step bound; the cycle check went untested", candidates)
	}
	t.Logf("%d candidates, %d never halt", candidates, bounded)
}

// TestArchDigestLoopChangingMemory runs a loop whose registers repeat from
// one iteration to the next at most of its instructions while a store
// bumps a counter in memory, and whose exit reads that counter. Its
// (PC, registers) pairs repeat, but its memory does not, so it is no
// cycle: it must halt with the reference digest.
func TestArchDigestLoopChangingMemory(t *testing.T) {
	p := asm.MustAssemble("counter", `
  movi r1, 0x2000
top:
  ld r2, 0(r1)
  addi r2, r2, 1
  st r2, 0(r1)
  slti r3, r2, 3000
  movi r2, 0
  nop
  nop
  nop
  nop
  nop
  nop
  nop
  nop
  bne r3, r0, top
  ld r4, 0(r1)
  halt
`)
	if sameDigest(t, p) {
		t.Fatalf("%s did not halt", p.Name)
	}
}
