package symx

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spt/internal/emu"
	"spt/internal/isa"
)

const testSecretAddr = 0x2000

func ins(op isa.Op, rd, rs1, rs2 isa.Reg, imm int64) isa.Instruction {
	return isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

func testProg(name string, code []isa.Instruction) *isa.Program {
	return &isa.Program{
		Name: name,
		Code: code,
		Data: []isa.Segment{{Addr: testSecretAddr, Bytes: []byte{0x5A}}},
	}
}

func testCfg() Config {
	return Config{Secret: SecretSpec{Addr: testSecretAddr, Size: 1}}
}

// spectreV1 mispredicts an always-taken guard branch; the transient
// fall-through loads the secret and probes a line-granular array.
func spectreV1() *isa.Program {
	return testProg("spectre-v1", []isa.Instruction{
		ins(isa.BEQ, 0, isa.Zero, isa.Zero, 5), // arch: taken to halt
		ins(isa.MOVI, 4, 0, 0, testSecretAddr),
		ins(isa.LDB, 5, 4, 0, 0), // transient secret load
		ins(isa.SHLI, 6, 5, 0, 6),
		ins(isa.LD, 7, 6, 0, 0x3000), // transmit: line per secret value
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// sttGap loads the secret architecturally (a "nonspeculative secret"),
// then transmits it only transiently: the exact case STT's taint rule
// does not cover and SPT does.
func sttGap() *isa.Program {
	return testProg("stt-gap", []isa.Instruction{
		ins(isa.MOVI, 4, 0, 0, testSecretAddr),
		ins(isa.LDB, 5, 4, 0, 0), // architectural secret load (address is uniform)
		ins(isa.BEQ, 0, isa.Zero, isa.Zero, 3),
		ins(isa.SHLI, 6, 5, 0, 6),
		ins(isa.LD, 7, 6, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// storeBypass guards the transmit sequence with a flag a store just set:
// the bypass window reads the stale flag and runs the gadget.
func storeBypass() *isa.Program {
	return testProg("store-bypass", []isa.Instruction{
		ins(isa.MOVI, 2, 0, 0, 0x4000),
		ins(isa.MOVI, 3, 0, 0, 1),
		ins(isa.ST, 0, 2, 3, 0),  // guard = 1; bypass episode sees 0
		ins(isa.LD, 4, 2, 0, 0),  // arch: 1, transient: 0
		ins(isa.BNE, 0, 4, 0, 4), // arch: taken to halt; transient: falls through
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.SHLI, 6, 5, 0, 6),
		ins(isa.LD, 7, 6, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// returnGadget mispredicts a return via the RAS: the leaf overwrites its
// return address, so the RAS-predicted path (the original call site's
// fall-through) runs transiently and transmits.
func returnGadget() *isa.Program {
	return testProg("return-gadget", []isa.Instruction{
		ins(isa.JAL, isa.RA, 0, 0, 5), // call leaf at 5
		// RAS predicts a return to here: the transient path.
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.SHLI, 6, 5, 0, 6),
		ins(isa.LD, 7, 6, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
		ins(isa.ADDI, isa.RA, isa.RA, 0, 3), // leaf: skip the gadget on the real return
		ins(isa.JALR, 0, isa.RA, 0, 0),      // returns to 4 (halt), RAS says 1
	})
}

func verdictOf(t *testing.T, p *isa.Program, scheme, model string) Result {
	t.Helper()
	res, err := Verify(p, scheme, model, testCfg())
	if err != nil {
		t.Fatalf("%s under %s/%s: %v", p.Name, scheme, model, err)
	}
	return res
}

func TestHandGadgetVerdicts(t *testing.T) {
	cases := []struct {
		prog    *isa.Program
		scheme  string
		model   string
		verdict Verdict
	}{
		{spectreV1(), "unsafe", "futuristic", VerdictLeak},
		{spectreV1(), "stt", "futuristic", VerdictSecure},
		{spectreV1(), "spt", "futuristic", VerdictSecure},
		{spectreV1(), "secure", "futuristic", VerdictSecure},
		{spectreV1(), "spt", "spectre", VerdictSecure},

		{sttGap(), "unsafe", "futuristic", VerdictLeak},
		{sttGap(), "stt", "futuristic", VerdictLeak}, // the paper's §3 gap
		{sttGap(), "spt", "futuristic", VerdictSecure},
		{sttGap(), "spt-ideal", "futuristic", VerdictSecure},

		{storeBypass(), "unsafe", "futuristic", VerdictLeak},
		{storeBypass(), "stt", "futuristic", VerdictSecure},
		{storeBypass(), "spt", "futuristic", VerdictSecure},
		// Memory speculation is outside the Spectre threat model: every
		// scheme leaves the bypass window open there.
		{storeBypass(), "spt", "spectre", VerdictLeak},
		{storeBypass(), "stt", "spectre", VerdictLeak},
		{storeBypass(), "secure", "spectre", VerdictLeak},

		{returnGadget(), "unsafe", "futuristic", VerdictLeak},
		{returnGadget(), "stt", "futuristic", VerdictSecure},
		{returnGadget(), "spt", "futuristic", VerdictSecure},
	}
	for _, c := range cases {
		res := verdictOf(t, c.prog, c.scheme, c.model)
		if res.Verdict != c.verdict {
			t.Errorf("%s under %s/%s: got %v (%s; %s), want %v",
				c.prog.Name, c.scheme, c.model, res.Verdict, res.Method, res.Reason, c.verdict)
		}
		if res.Verdict == VerdictLeak {
			if res.Witness == nil {
				t.Errorf("%s under %s/%s: leak without witness", c.prog.Name, c.scheme, c.model)
			} else if string(res.Witness.SecretA) == string(res.Witness.SecretB) {
				t.Errorf("%s under %s/%s: degenerate witness %#x", c.prog.Name, c.scheme, c.model, res.Witness.SecretA)
			}
		}
	}
}

// TestEnumerationFallback drives a transient branch whose direction is
// the secret itself: the symbolic pass cannot follow both paths, so the
// verdict must come from exhaustive enumeration, still with a witness.
func TestEnumerationFallback(t *testing.T) {
	p := testProg("transient-secret-branch", []isa.Instruction{
		ins(isa.MOVI, 2, 0, 0, 0x4000),
		ins(isa.MOVI, 3, 0, 0, 1),
		ins(isa.ST, 0, 2, 3, 0),
		ins(isa.LD, 4, 2, 0, 0),
		ins(isa.BNE, 0, 4, 0, 5), // arch: taken to halt at 9
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.BNE, 0, 5, 0, 2), // transient: direction IS the secret
		ins(isa.LD, 7, isa.Zero, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
		ins(isa.HALT, 0, 0, 0, 0),
	})
	res := verdictOf(t, p, "unsafe", "futuristic")
	if res.Verdict != VerdictLeak || res.Method != "enumeration" {
		t.Fatalf("got %v via %s (%s), want leak via enumeration", res.Verdict, res.Method, res.Reason)
	}
	if res.Witness == nil || res.Witness.Divergence == "" {
		t.Fatalf("enumeration leak without witness divergence: %+v", res)
	}
	// SPT closes the window entirely, symbolically.
	res = verdictOf(t, p, "spt", "futuristic")
	if res.Verdict != VerdictSecure || res.Method != "symbolic" {
		t.Fatalf("spt: got %v via %s, want secure via symbolic", res.Verdict, res.Method)
	}
}

// selfOverwriteD is the address of selfOverwrite's data byte D.
const selfOverwriteD = 0x2040

// selfOverwrite overwrites its own data byte D architecturally and on two
// transient paths (the store-bypass window, which sees the stale D and
// falls into the gadget, and the mispredicted fall-through of the guard),
// reloads D on each, and turns every load of D into a line address. Its
// bypass window also branches on the secret, so its verdict needs the
// enumeration fallback.
func selfOverwrite() *isa.Program {
	const dAddr = selfOverwriteD
	return &isa.Program{
		Name: "self-overwrite",
		Code: []isa.Instruction{
			ins(isa.LDB, 2, isa.Zero, 0, dAddr), // D is 3 in the image
			ins(isa.SHLI, 2, 2, 0, 6),
			ins(isa.LD, 3, 2, 0, 0x3000),
			ins(isa.MOVI, 4, 0, 0, 7),
			ins(isa.STB, 0, isa.Zero, 4, dAddr), // D = 7; the bypass window sees 3
			ins(isa.LDB, 5, isa.Zero, 0, dAddr),
			ins(isa.MOVI, 6, 0, 0, 7),
			ins(isa.BEQ, 0, 5, 6, 9), // arch: taken to 16; transient: falls through
			ins(isa.MOVI, 7, 0, 0, 9),
			ins(isa.STB, 0, isa.Zero, 7, dAddr), // transient D = 9
			ins(isa.LDB, 8, isa.Zero, 0, dAddr),
			ins(isa.SHLI, 8, 8, 0, 6),
			ins(isa.LD, 9, 8, 0, 0x3000),
			ins(isa.LDB, 10, isa.Zero, 0, testSecretAddr),
			ins(isa.BNE, 0, 10, 0, 2), // in the bypass window: direction IS the secret
			ins(isa.NOP, 0, 0, 0, 0),
			ins(isa.LDB, 11, isa.Zero, 0, dAddr), // arch reload: 7
			ins(isa.SHLI, 11, 11, 0, 6),
			ins(isa.LD, 12, 11, 0, 0x3000),
			ins(isa.HALT, 0, 0, 0, 0),
		},
		Data: []isa.Segment{
			{Addr: testSecretAddr, Bytes: []byte{0x5A}},
			{Addr: dAddr, Bytes: []byte{3}},
		},
	}
}

// cloneImage deep-copies an image's segments.
func cloneImage(img image) image {
	out := make(image, len(img))
	for i, seg := range img {
		out[i] = isa.Segment{Addr: seg.Addr, Bytes: append([]byte(nil), seg.Bytes...)}
	}
	return out
}

// TestImageSharedReadOnly pins that the data image one Verify call
// shares among all its machines — the program's own segments — stays
// read-only. selfOverwrite's verdict takes 256 replays on one image; a
// store reaching the image would show in the next replay's first load of
// D.
func TestImageSharedReadOnly(t *testing.T) {
	p := selfOverwrite()
	cfg := testCfg().withDefaults()
	pol, err := policyFor("unsafe", "futuristic")
	if err != nil {
		t.Fatal(err)
	}
	img := newImage(p)
	orig := cloneImage(img)
	res, err := verify(p, img, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "enumeration" {
		t.Fatalf("verdict %v via %s (%s), want the enumeration fallback", res.Verdict, res.Method, res.Reason)
	}
	if !reflect.DeepEqual(img, orig) {
		d, _ := img.at(selfOverwriteD)
		t.Fatalf("image after Verify differs from the program's data: D = %d", d)
	}
	budget := cfg.MaxWork
	traces, _, err := replayDomain(p, img, pol, cfg, &budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range traces {
		secret := domainSecret(i, cfg.Secret.Size)
		fresh, err := ObservationEvents(p, "unsafe", "futuristic", cfg, secret)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]cEvent, len(fresh))
		for k, ev := range fresh {
			want[k] = cEvent{Kind: ev.Kind, Addr: mustConst(t, ev.Addr)}
		}
		if d := diffTraces(got, want); d != "" {
			t.Fatalf("secret %#x: enumeration replay differs from a fresh run: %s", secret, d)
		}
	}
	if !reflect.DeepEqual(img, orig) {
		d, _ := img.at(selfOverwriteD)
		t.Fatalf("image after the replays differs from the program's data: D = %d", d)
	}
}

// TestArchLeakRejected pins the contract: programs whose architectural
// execution depends on the secret are errors, not leak verdicts, exactly
// like the differential oracle's arch-sameness precheck.
func TestArchLeakRejected(t *testing.T) {
	storeVal := testProg("arch-store-value", []isa.Instruction{
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.ST, 0, isa.Zero, 5, 0x4000),
		ins(isa.HALT, 0, 0, 0, 0),
	})
	branchDir := testProg("arch-branch", []isa.Instruction{
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.BNE, 0, 5, 0, 1),
		ins(isa.HALT, 0, 0, 0, 0),
	})
	loadAddr := testProg("arch-load-addr", []isa.Instruction{
		ins(isa.LDB, 5, isa.Zero, 0, testSecretAddr),
		ins(isa.SHLI, 6, 5, 0, 6),
		ins(isa.LD, 7, 6, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
	})
	for _, p := range []*isa.Program{storeVal, branchDir, loadAddr} {
		_, err := Verify(p, "unsafe", "futuristic", testCfg())
		var al ErrArchLeak
		if !errors.As(err, &al) {
			t.Errorf("%s: got %v, want ErrArchLeak", p.Name, err)
			continue
		}
		if string(al.SecretA) == string(al.SecretB) {
			t.Errorf("%s: degenerate arch-leak witness %#x", p.Name, al.SecretA)
		}
	}
}

// TestObservationEventsSecretLength: a concrete secret shorter or longer
// than Config.Secret.Size is an error naming both lengths, not a panic or
// a silently truncated secret.
func TestObservationEventsSecretLength(t *testing.T) {
	for _, c := range []struct {
		size   int
		secret []byte
	}{
		{1, []byte{}},
		{2, []byte{0x5A}},
		{1, []byte{0x5A, 0x01}},
	} {
		cfg := Config{Secret: SecretSpec{Addr: testSecretAddr, Size: c.size}}
		_, err := ObservationEvents(spectreV1(), "unsafe", "futuristic", cfg, c.secret)
		if err == nil {
			t.Errorf("%d-byte secret for a %d-byte spec: no error", len(c.secret), c.size)
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d bytes", len(c.secret)), fmt.Sprintf("Size is %d", c.size)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d-byte secret for a %d-byte spec: error %q does not say %q", len(c.secret), c.size, err, want)
			}
		}
	}
	if _, err := ObservationEvents(spectreV1(), "unsafe", "futuristic", testCfg(), []byte{0x5A}); err != nil {
		t.Errorf("secret of the spec's length: %v", err)
	}
}

// TestArchEquivalence runs a program exercising ALU, memory, and
// call/return control flow on the concrete symbolic machine and on the
// golden emulator, and compares the full architectural register file.
func TestArchEquivalence(t *testing.T) {
	p := testProg("arch-equiv", []isa.Instruction{
		ins(isa.MOVI, 2, 0, 0, 0x4000),
		ins(isa.MOVI, 3, 0, 0, -7),
		ins(isa.ADD, 4, 2, 3, 0),
		ins(isa.MUL, 5, 4, 3, 0),
		ins(isa.DIV, 6, 5, 3, 0),
		ins(isa.REM, 7, 5, 4, 0),
		ins(isa.ST, 0, 2, 5, 8),
		ins(isa.LD, 8, 2, 0, 8),
		ins(isa.LDW, 9, 2, 0, 8),
		ins(isa.LDB, 10, 2, 0, 8),
		ins(isa.SLT, 11, 3, 4, 0),
		ins(isa.MAXU, 12, 5, 3, 0),
		ins(isa.ROLW, 13, 5, 4, 0),
		ins(isa.JAL, isa.RA, 0, 0, 3), // call leaf at 16
		ins(isa.XORI, 15, 14, 0, 0x55),
		ins(isa.HALT, 0, 0, 0, 0),
		ins(isa.ADDI, 14, 7, 0, 9), // leaf
		ins(isa.JALR, 0, isa.RA, 0, 0),
	})
	e := emu.New(p)
	for !e.State.Halted {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	budget := int64(1 << 20)
	m := newMachine(p, newImage(p), policy{}, testCfg().withDefaults(), nil, &budget)
	m.reset([]byte{0x5A})
	if err := m.run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < isa.NumRegs; r++ {
		v, ok := m.regs[r].ConstVal()
		if !ok {
			t.Fatalf("r%d not concrete after concrete run: %v", r, m.regs[r])
		}
		if v != e.State.Regs[r] {
			t.Errorf("r%d: symx %#x, emu %#x", r, v, e.State.Regs[r])
		}
	}
	if got := e.State.Mem.Read(0x4008, 8); got != mustConst(t, m.memByteRead(0x4008)) {
		t.Errorf("memory at 0x4008: emu %#x symx %#x", got, mustConst(t, m.memByteRead(0x4008)))
	}
}

func mustConst(t *testing.T, tm *Term) uint64 {
	t.Helper()
	v, ok := tm.ConstVal()
	if !ok {
		t.Fatalf("term not concrete: %v", tm)
	}
	return v
}

// memByteRead is a test helper reading an 8-byte value.
func (m *machine) memByteRead(addr uint64) *Term {
	return m.readMem(nil, addr, 8)
}

// TestSymbolicConcreteTraceAgreement pins the core property on the hand
// gadgets: evaluating the symbolic trace at a concrete secret reproduces
// the concrete machine's trace event for event.
func TestSymbolicConcreteTraceAgreement(t *testing.T) {
	progs := []*isa.Program{spectreV1(), sttGap(), storeBypass(), returnGadget()}
	schemes := []string{"unsafe", "stt", "spt", "secure", "spt-fwd", "spt-ideal"}
	models := []string{"futuristic", "spectre"}
	for _, p := range progs {
		for _, scheme := range schemes {
			for _, model := range models {
				sym, err := ObservationEvents(p, scheme, model, testCfg(), nil)
				if err != nil {
					t.Fatalf("%s %s/%s symbolic: %v", p.Name, scheme, model, err)
				}
				for _, s := range []byte{0, 1, 0x5A, 0xFF} {
					conc, err := ObservationEvents(p, scheme, model, testCfg(), []byte{s})
					if err != nil {
						t.Fatalf("%s %s/%s secret %#x: %v", p.Name, scheme, model, s, err)
					}
					if len(conc) != len(sym) {
						t.Fatalf("%s %s/%s secret %#x: %d concrete events vs %d symbolic",
							p.Name, scheme, model, s, len(conc), len(sym))
					}
					for i := range sym {
						if sym[i].Kind != conc[i].Kind || sym[i].PC != conc[i].PC || sym[i].Spec != conc[i].Spec {
							t.Fatalf("%s %s/%s secret %#x event %d: shape mismatch %+v vs %+v",
								p.Name, scheme, model, s, i, sym[i], conc[i])
						}
						want := mustConst(t, conc[i].Addr)
						if got := sym[i].Addr.Eval([]byte{s}); got != want {
							t.Fatalf("%s %s/%s secret %#x event %d: symbolic eval %#x, concrete %#x",
								p.Name, scheme, model, s, i, got, want)
						}
					}
				}
			}
		}
	}
}
