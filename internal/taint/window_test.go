package taint

import (
	"testing"

	"spt/internal/asm"
	"spt/internal/mem"
	"spt/internal/pipeline"
)

// TestMirrorRejectsOutOfStepHooks: a hook that disagrees with the ROB
// mirror panics rather than leaving the worklists silently wrong.
func TestMirrorRejectsOutOfStepHooks(t *testing.T) {
	stt := NewSTT()
	if _, err := pipeline.New(pipeline.DefaultConfig(), asm.MustAssemble("halt", "halt\n"), mem.NewHierarchy(mem.DefaultHierarchyConfig()), stt); err != nil {
		t.Fatal(err)
	}
	inst := func(seq uint64) *pipeline.DynInst {
		return &pipeline.DynInst{Seq: seq, Src1: pipeline.NoReg, Src2: pipeline.NoReg, Dst: pipeline.NoReg}
	}
	mustPanic := func(what string, hook func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		hook()
	}
	a, b := inst(1), inst(2)
	stt.OnRename(a)
	stt.OnRename(b)
	mustPanic("retiring the youngest", func() { stt.OnRetire(b) })
	mustPanic("squashing the oldest", func() { stt.OnSquash(a) })
	stt.OnRetire(a)
	stt.OnSquash(b)
	mustPanic("retiring from an empty mirror", func() { stt.OnRetire(a) })
	for i := 0; i < len(stt.win.slots); i++ {
		stt.OnRename(inst(uint64(3 + i)))
	}
	mustPanic("renaming into a full mirror", func() { stt.OnRename(inst(1000)) })
}
