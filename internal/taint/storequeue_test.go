package taint

import (
	"testing"

	"spt/internal/asm"
	"spt/internal/mem"
	"spt/internal/pipeline"
)

// Registers of the store-queue tests: pub is public, sec tainted.
const pub, sec = pipeline.PhysReg(1), pipeline.PhysReg(2)

var sqTaint = []bool{false, false, true}

func sqStore(seq uint64, addr pipeline.PhysReg, known, atVP bool) *pipeline.DynInst {
	return &pipeline.DynInst{Seq: seq, IsSt: true, Src1: addr, AddrKnown: known, AtVP: atVP}
}

// TestViolationSquashPublic reaches every branch of the violation-squash
// gate: the load at seq 10 conflicts with the store at seq 2.
func TestViolationSquashPublic(t *testing.T) {
	for _, tc := range []struct {
		name string
		ld   pipeline.DynInst
		sq   [2][]*pipeline.DynInst
		want bool
	}{
		{"all public", pipeline.DynInst{Src1: pub, ViolSrc1: pub}, [2][]*pipeline.DynInst{{sqStore(5, pub, true, false)}}, true},
		{"tainted load address", pipeline.DynInst{Src1: sec, ViolSrc1: pub}, [2][]*pipeline.DynInst{}, false},
		{"load at VP", pipeline.DynInst{Src1: sec, ViolSrc1: sec, AtVP: true}, [2][]*pipeline.DynInst{{sqStore(5, sec, true, false)}}, true},
		{"tainted violating-store address", pipeline.DynInst{Src1: pub, ViolSrc1: sec}, [2][]*pipeline.DynInst{}, false},
		{"tainted intermediate store address", pipeline.DynInst{Src1: pub, ViolSrc1: pub}, [2][]*pipeline.DynInst{{sqStore(3, pub, true, false)}, {sqStore(5, sec, true, false)}}, false},
		{"unknown intermediate store address", pipeline.DynInst{Src1: pub, ViolSrc1: pub}, [2][]*pipeline.DynInst{{sqStore(5, sec, false, false)}}, true},
		{"tainted stores outside the range", pipeline.DynInst{Src1: pub, ViolSrc1: pub}, [2][]*pipeline.DynInst{{sqStore(1, sec, true, false), sqStore(2, sec, true, false)}, {sqStore(12, sec, true, false)}}, true},
	} {
		ld := tc.ld
		ld.Seq, ld.IsLd, ld.HasViolStore, ld.ViolStoreSeq = 10, true, true, 2
		if got := violationSquashPublic(sqTaint, &ld, tc.sq); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	noViol := pipeline.DynInst{Seq: 10, IsLd: true, Src1: pub, ViolSrc1: sec}
	if !violationSquashPublic(sqTaint, &noViol, [2][]*pipeline.DynInst{{sqStore(5, sec, true, false)}}) {
		t.Error("a load with no violating store is gated only by its own address")
	}
}

// TestSTLPublic reaches every branch of STLPublic(S, L) for the store at
// seq 2 forwarding to the load at seq 10.
func TestSTLPublic(t *testing.T) {
	live := func(addr pipeline.PhysReg, atVP bool) *pipeline.DynInst { return sqStore(2, addr, true, atVP) }
	for _, tc := range []struct {
		name string
		st   *pipeline.DynInst // nil: retired
		ld   pipeline.DynInst
		sq   [2][]*pipeline.DynInst
		want bool
	}{
		{"all public", live(pub, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{{sqStore(5, pub, true, false)}}, true},
		{"tainted load address", live(pub, false), pipeline.DynInst{Src1: sec}, [2][]*pipeline.DynInst{}, false},
		{"load at VP", live(pub, false), pipeline.DynInst{Src1: sec, AtVP: true}, [2][]*pipeline.DynInst{}, true},
		{"tainted store address", live(sec, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{}, false},
		{"store at VP", live(sec, true), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{}, true},
		{"retired store", nil, pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{}, true},
		{"tainted intermediate store address", live(pub, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{{sqStore(3, pub, true, false)}, {sqStore(5, sec, true, false)}}, false},
		{"unknown intermediate store address", live(pub, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{{sqStore(5, pub, false, false)}}, false},
		{"intermediate store at VP", live(pub, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{{sqStore(5, sec, false, true)}}, true},
		{"tainted stores outside the range", live(pub, false), pipeline.DynInst{Src1: pub}, [2][]*pipeline.DynInst{{sqStore(1, sec, false, false), sqStore(2, sec, true, false)}, {sqStore(12, sec, false, false)}}, true},
	} {
		ld := tc.ld
		ld.Seq, ld.IsLd = 10, true
		if got := stlPublic(sqTaint, 2, tc.st, &ld, tc.sq); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStoreQueueGates checks the policies' wrappers around the shared
// predicates on a core with an empty store queue: the SecureBaseline's
// early-outs, each policy reading its own taint vector, and the
// STLPublic hit counters.
func TestStoreQueueGates(t *testing.T) {
	attach := func(pol pipeline.Policy) {
		if _, err := pipeline.New(pipeline.DefaultConfig(), asm.MustAssemble("halt", "halt\n"), mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol); err != nil {
			t.Fatal(err)
		}
	}
	secure := NewSPT(SPTConfig{Method: UntaintNone})
	spt := NewSPT(DefaultSPTConfig())
	stt := NewSTT()
	for _, pol := range []pipeline.Policy{secure, spt, stt} {
		attach(pol)
	}
	// SPT starts every architectural register tainted.
	spt.taint[pub], spt.taint[sec] = false, true
	stt.sTaint[sec] = true

	ld := func(addr pipeline.PhysReg, atVP bool) *pipeline.DynInst {
		return &pipeline.DynInst{Seq: 10, IsLd: true, Src1: addr, AtVP: atVP}
	}
	st := &pipeline.DynInst{Seq: 2, IsSt: true, Src1: pub}
	retired := &pipeline.DynInst{Seq: 2, IsSt: true, Src1: sec, Retired: true}
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"secure squash before VP", secure.MaySquashOnViolation(ld(pub, false)), false},
		{"secure squash at VP", secure.MaySquashOnViolation(ld(sec, true)), true},
		{"spt squash, public address", spt.MaySquashOnViolation(ld(pub, false)), true},
		{"spt squash, tainted address", spt.MaySquashOnViolation(ld(sec, false)), false},
		{"stt squash, public address", stt.MaySquashOnViolation(ld(pub, false)), true},
		{"stt squash, tainted address", stt.MaySquashOnViolation(ld(sec, false)), false},
		{"secure forward before VP", secure.STLForwardPublic(st, ld(pub, false)), false},
		{"secure forward from a retired store at VP", secure.STLForwardPublic(retired, ld(sec, true)), true},
		{"spt forward, public addresses", spt.STLForwardPublic(st, ld(pub, false)), true},
		{"spt forward, tainted load address", spt.STLForwardPublic(st, ld(sec, false)), false},
		{"stt forward from a retired store", stt.STLForwardPublic(retired, ld(pub, false)), true},
		{"stt forward, tainted load address", stt.STLForwardPublic(st, ld(sec, false)), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if secure.Stats.STLPublicHits != 1 || spt.Stats.STLPublicHits != 1 || stt.Stats.STLPublicHits != 1 {
		t.Errorf("STLPublic hits: secure %d, spt %d, stt %d; want 1 each",
			secure.Stats.STLPublicHits, spt.Stats.STLPublicHits, stt.Stats.STLPublicHits)
	}
}
