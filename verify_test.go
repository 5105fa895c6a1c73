package spt_test

import (
	"encoding/json"
	"strings"
	"testing"

	"spt"
	"spt/internal/attack"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/symx"
)

// TestRunVerifyCorpus pins the acceptance contract on the checked-in
// corpus: the campaign passes, every reproducer is Leak under unsafe and
// Secure under spt in the futuristic model, and the report agrees with
// the corpus metadata on every classified cell.
func TestRunVerifyCorpus(t *testing.T) {
	rep, err := spt.RunVerify(spt.VerifyOptions{CorpusDir: "testdata/fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("corpus campaign failed:\n%s", rep.Text())
	}
	if rep.Programs != 4 {
		t.Fatalf("expected 4 corpus programs, got %d", rep.Programs)
	}
	find := func(scheme spt.Scheme, model spt.AttackModel) spt.VerifyCellStats {
		for _, c := range rep.Cells {
			if c.Scheme == scheme && c.Model == model {
				return c
			}
		}
		t.Fatalf("cell %s/%s missing from report", scheme, model)
		return spt.VerifyCellStats{}
	}
	unsafeCell := find(spt.UnsafeBaseline, spt.Futuristic)
	if unsafeCell.AgreeLeak != 4 {
		t.Fatalf("unsafe/futuristic: want 4 agreed leaks, got %+v", unsafeCell)
	}
	sptCell := find(spt.SPTFull, spt.Futuristic)
	if sptCell.AgreeSecure != 4 {
		t.Fatalf("spt/futuristic: want 4 agreed secure, got %+v", sptCell)
	}
}

// TestRunVerifyDeterminism pins jobs-independence: the JSON report is
// byte-identical at 1 worker and at 7.
func TestRunVerifyDeterminism(t *testing.T) {
	opt := spt.VerifyOptions{CorpusDir: "testdata/fuzz", Count: 6, Seed: 11}
	opt.Jobs = 1
	a, err := spt.RunVerify(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 7
	b, err := spt.RunVerify(opt)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatal("report differs between -jobs 1 and -jobs 7")
	}
	var parsed spt.VerifyReport
	if err := json.Unmarshal([]byte(ja), &parsed); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
}

// TestRunVerifyGenerated checks a generated-only campaign stays clean and
// the text report renders a verdict line.
func TestRunVerifyGenerated(t *testing.T) {
	count := 24
	if testing.Short() {
		count = 6
	}
	rep, err := spt.RunVerify(spt.VerifyOptions{Count: count, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("generated campaign failed:\n%s", rep.Text())
	}
	if !strings.Contains(rep.Text(), "VERDICT: PASS") {
		t.Fatalf("text report missing verdict:\n%s", rep.Text())
	}
}

// TestRunVerifyNegativeCount pins that a negative gadget count is an
// error, not a campaign over fewer programs than the corpus holds.
func TestRunVerifyNegativeCount(t *testing.T) {
	for _, dir := range []string{"", "testdata/fuzz"} {
		rep, err := spt.RunVerify(spt.VerifyOptions{CorpusDir: dir, Count: -3})
		if err == nil {
			t.Fatalf("corpus %q, Count -3: got a report for %d programs, want an error", dir, rep.Programs)
		}
	}
}

// FuzzOracleAgreement is the native fuzz entry for the two-oracle
// harness: any generated gadget, any grid cell, the differential fuzzer
// and the symbolic executor must agree with each other and with the
// generator's ground-truth matrix.
func FuzzOracleAgreement(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))
	f.Add(int64(18), uint8(7), uint8(1))
	f.Add(int64(33), uint8(5), uint8(0))
	schemes := fuzz.SchemeNames()
	models := fuzz.ModelNames()
	f.Fuzz(func(t *testing.T, seed int64, si, mi uint8) {
		scheme := schemes[int(si)%len(schemes)]
		model := models[int(mi)%len(models)]
		c := fuzz.Generate(seed)
		cc, err := fuzz.CrossCheckProgram(c.Prog, scheme, model)
		if err != nil {
			t.Fatalf("seed %d %s/%s: %v", seed, scheme, model, err)
		}
		if !cc.OK() {
			t.Fatalf("oracle disagreement: %s", cc)
		}
		if cc.Sym.Verdict == symx.VerdictUnknown {
			t.Fatalf("seed %d %s/%s: symbolic oracle abstained: %s", seed, scheme, model, cc.Sym.Reason)
		}
		want := fuzz.ExpectLeak(scheme, model, c)
		if got := cc.Sym.Verdict == symx.VerdictLeak; got != want {
			t.Fatalf("seed %d %s/%s: ExpectLeak=%v but symbolic verdict %s", seed, scheme, model, want, cc.Sym.Verdict)
		}
		if cc.FuzzLeaked != want && cc.Agreement != fuzz.SymLeakConfirmed {
			t.Fatalf("seed %d %s/%s: ExpectLeak=%v but fuzzer leak=%v", seed, scheme, model, want, cc.FuzzLeaked)
		}
	})
}

// FuzzSymxNoPanic feeds arbitrary instruction encodings to the symbolic
// executor: malformed programs must be rejected with an error, never a
// panic, and verdicts on well-formed ones must come back without error.
func FuzzSymxNoPanic(f *testing.F) {
	seedProg := func(seed int64) []byte {
		return isa.EncodeProgram(fuzz.Generate(seed).Prog.Code)
	}
	f.Add(seedProg(1), uint8(0))
	f.Add(seedProg(5), uint8(9))
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, isa.WordSize), uint8(3))
	schemes := fuzz.SchemeNames()
	models := fuzz.ModelNames()
	f.Fuzz(func(t *testing.T, raw []byte, cell uint8) {
		code, err := isa.DecodeProgram(raw)
		if err != nil {
			return
		}
		prog := &isa.Program{
			Name: "fuzz-symx",
			Code: code,
			Data: []isa.Segment{{Addr: attack.SecretAddr, Bytes: []byte{0}}},
		}
		scheme := schemes[int(cell)%len(schemes)]
		model := models[int(cell/16)%len(models)]
		cfg := fuzz.SymxConfig()
		// Arbitrary programs may loop or touch every page; keep the
		// budget small so the fuzzer iterates fast. Verify must return a
		// Result or an error — contract errors (validation, budget,
		// non-termination, arch leaks) are fine, panics are the bug.
		cfg.MaxSteps = 1 << 10
		cfg.MaxWork = 1 << 16
		res, err := symx.Verify(prog, scheme, model, cfg)
		if err != nil {
			return
		}
		if res.Verdict == symx.VerdictLeak && res.Witness == nil {
			t.Fatalf("%s/%s: leak verdict without witness", scheme, model)
		}
	})
}
