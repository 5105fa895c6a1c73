package symx

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spt/internal/isa"
)

// TestWordAccessMatchesBytewise holds readMem's and writeMem's direct
// all-constant path to the byte-term path it bypasses, on random mixes of
// constant and secret bytes at every access size: the two must agree on
// base, varbits and the value at every secret.
func TestWordAccessMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := testProg("word-access", nil)
	budget := int64(1 << 20)
	m := newMachine(p, newImage(p), policy{}, testCfg().withDefaults(), newTermCtx(1), &budget)
	m.reset(nil)
	same := func(what string, got, want *Term) {
		t.Helper()
		if got.base != want.base || got.varbits != want.varbits {
			t.Fatalf("%s: base %#x varbits %#x, byte path base %#x varbits %#x",
				what, got.base, got.varbits, want.base, want.varbits)
		}
		for s := 0; s < 256; s++ {
			secret := []byte{byte(s)}
			if g, w := got.Eval(secret), want.Eval(secret); g != w {
				t.Fatalf("%s: secret %#x: %#x, byte path %#x", what, s, g, w)
			}
		}
	}
	// randByte is a random memory byte: constant, the secret itself, or a
	// masked term over it that may fold to a constant.
	randByte := func(symbolic bool) *Term {
		if !symbolic {
			return Const(uint64(rng.Intn(256)))
		}
		if rng.Intn(2) == 0 {
			return SecretByte(0)
		}
		return OpImm(isa.ANDI, randTerm(rng, 3), 0xFF)
	}
	const base = 0x4000
	for trial := 0; trial < 400; trial++ {
		// Each byte is symbolic with probability 0, 1/4 or 1/2 this trial,
		// so every size also sees all-constant words.
		density := rng.Intn(3)
		clear(m.mem)
		overlay := map[uint64]*Term{}
		for a := uint64(base); a < base+16; a++ {
			switch rng.Intn(4) {
			case 0: // absent: reads the image's zero
			case 1:
				overlay[a] = randByte(rng.Intn(4) < density)
			default:
				m.mem[a] = randByte(rng.Intn(4) < density)
			}
		}
		for _, size := range []int{1, 2, 4, 8} {
			addr := base + uint64(rng.Intn(8))
			for _, ov := range []map[uint64]*Term{nil, overlay} {
				v := m.readMem(ov, addr, size)
				same(fmt.Sprintf("trial %d: %d-byte load at %#x", trial, size, addr), v, m.readMemBytes(ov, addr, size))
				for _, w := range []*Term{v, Const(rng.Uint64()), randTerm(rng, 3)} {
					direct, bytewise := map[uint64]*Term{}, map[uint64]*Term{}
					m.writeMem(direct, addr, size, w)
					m.writeMemBytes(bytewise, addr, size, w)
					if len(direct) != size || len(bytewise) != size {
						t.Fatalf("trial %d: %d-byte store wrote %d/%d bytes", trial, size, len(direct), len(bytewise))
					}
					for k := uint64(0); k < uint64(size); k++ {
						same(fmt.Sprintf("trial %d: byte %d of a %d-byte store of %v", trial, k, size, w),
							direct[addr+k], bytewise[addr+k])
					}
				}
			}
		}
	}
}

// TestEnumerateAllocs pins that the enumeration fallback's replays run on
// one reused machine whose terms come from its slab: one enumerate on the
// store-bypass gadget stays under 1,024 allocations. The bound sits above
// the one trace and one secret each replay returns (512) and far below a
// fresh machine per secret with a heap term per operation (over 27,000).
func TestEnumerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := storeBypass()
	cfg := testCfg().withDefaults()
	pol, err := policyFor("unsafe", "futuristic")
	if err != nil {
		t.Fatal(err)
	}
	img := newImage(p)
	var res Result
	allocs := testing.AllocsPerRun(5, func() {
		budget := cfg.MaxWork
		res, err = enumerate(p, img, pol, cfg, &budget)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictLeak || res.Method != "enumeration" {
		t.Fatalf("got %v via %s, want a leak via enumeration", res.Verdict, res.Method)
	}
	if allocs >= 1024 {
		t.Fatalf("one enumerate made %.0f allocations, want under 1024", allocs)
	}
}

// staleRegs reads a register before writing it: a replay that inherits
// the previous replay's registers loads from another line.
func staleRegs() *isa.Program {
	return testProg("stale-regs", []isa.Instruction{
		ins(isa.ADDI, 1, 1, 0, 64),
		ins(isa.LD, 2, 1, 0, 0x3000),
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// staleRAS returns before it calls: with an empty return-address stack
// the return is predicted to fall through into a transient load, but a
// stack inherited from the previous replay's call predicts a halt.
func staleRAS() *isa.Program {
	return testProg("stale-ras", []isa.Instruction{
		ins(isa.MOVI, isa.RA, 0, 0, 3),
		ins(isa.JALR, isa.Zero, isa.RA, 0, 0), // target 3
		ins(isa.LD, 7, isa.Zero, 0, 0x3000),   // the fall-through prediction
		ins(isa.JAL, isa.RA, 0, 0, 2),         // call 5; pushes 4
		ins(isa.HALT, 0, 0, 0, 0),
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// staleOverlay transmits a data byte D, then stores to it, inside a
// store-bypass window and architecturally: a window that inherits the
// previous replay's transient store, or a replay that inherits its
// architectural one, loads D = 5 instead of 0.
func staleOverlay() *isa.Program {
	return testProg("stale-overlay", []isa.Instruction{
		ins(isa.ST, 0, isa.Zero, isa.Zero, 0x4000), // opens the window
		ins(isa.LDB, 4, isa.Zero, 0, 0x2040),
		ins(isa.SHLI, 4, 4, 0, 6),
		ins(isa.LD, 5, 4, 0, 0x3000),
		ins(isa.MOVI, 6, 0, 0, 5),
		ins(isa.STB, 0, isa.Zero, 6, 0x2040),
		ins(isa.HALT, 0, 0, 0, 0),
	})
}

// replaySchemes mirrors fuzz.SchemeNames, which this package cannot import.
var replaySchemes = []string{"unsafe", "secure", "spt-fwd", "spt-bwd", "spt", "spt-shadowmem", "spt-ideal", "stt"}

// FuzzReplayDomainMatchesFresh holds the enumeration fallback's reused
// machine to concreteTrace's fresh one. On arbitrary programs and the
// hand gadgets, built as FuzzSymxNoPanic builds them, under any scheme and
// model, replayDomain must return what 256 fresh replays return: every
// trace and digest, or the first fresh replay's error at the same secret,
// with the same budget left. MaxWork is drawn small enough to run out
// mid-domain. The stale-state seeds each catch a reset that leaves out the
// registers, the return-address stack, the private memory or the episode
// overlay.
func FuzzReplayDomainMatchesFresh(f *testing.F) {
	for _, p := range []*isa.Program{spectreV1(), sttGap(), storeBypass(), returnGadget(),
		selfOverwrite(), staleRegs(), staleRAS(), staleOverlay()} {
		code := isa.EncodeProgram(p.Code)
		f.Add(code, uint8(0), uint16(0xFFFF))  // unsafe/futuristic
		f.Add(code, uint8(23), uint16(0xFFFF)) // stt/spectre
		f.Add(code, uint8(16), uint16(1500))   // unsafe/spectre, out of work mid-domain
	}
	f.Fuzz(func(t *testing.T, raw []byte, cell uint8, work uint16) {
		code, err := isa.DecodeProgram(raw)
		if err != nil {
			return
		}
		p := &isa.Program{
			Name: "fuzz-replay",
			Code: code,
			Data: []isa.Segment{{Addr: testSecretAddr, Bytes: []byte{0}}},
		}
		if p.Validate() != nil {
			return
		}
		scheme := replaySchemes[int(cell)%len(replaySchemes)]
		model := []string{"futuristic", "spectre"}[int(cell/16)%2]
		pol, err := policyFor(scheme, model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testCfg()
		cfg.MaxSteps = 1 << 10
		cfg.MaxWork = int64(work) + 1
		cfg = cfg.withDefaults()
		img := newImage(p)

		budget := cfg.MaxWork
		traces, digests, err := replayDomain(p, img, pol, cfg, &budget)
		fresh := cfg.MaxWork
		var want error
		for i := 0; i < 1<<(8*cfg.Secret.Size); i++ {
			secret := domainSecret(i, cfg.Secret.Size)
			tr, dg, ferr := concreteTrace(p, img, pol, cfg, &fresh, secret)
			if _, ok := ferr.(errBudget); ok {
				want = ferr
				break
			}
			if ferr != nil {
				want = fmt.Errorf("symx: %s secret=%#x: %w", p.Name, secret, ferr)
				break
			}
			if err == nil && (!reflect.DeepEqual(traces[i], tr) || digests[i] != dg) {
				t.Fatalf("%s/%s secret %#x: reused machine trace %v digest %#x, fresh machine %v digest %#x",
					scheme, model, secret, traces[i], digests[i], tr, dg)
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s/%s: replayDomain returned error %v, fresh replays %v", scheme, model, err, want)
		}
		if budget != fresh {
			t.Fatalf("%s/%s: reused machine left %d work, fresh machines %d", scheme, model, budget, fresh)
		}
	})
}
