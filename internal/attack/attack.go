// Package attack contains the penetration tests from the paper's
// evaluation (§9.1): a Spectre V1 bounds-bypass attack on
// speculatively-accessed data, and an attack on a *non-speculative secret*
// held by constant-time code — the case STT does not protect and SPT does.
// The gadget scaffolding (memory layout, slow-resolving guards, probe-array
// transmitters) lives in the Kit in gadget.go and is shared with the
// differential leakage fuzzer in internal/fuzz.
//
// The attacker's receiver is a cache-occupancy probe: after the victim
// runs, it checks which line of a 256-line probe array became resident.
// Probe line v resident <=> the transient transmitter executed with secret
// value v.
package attack

import (
	"fmt"
	"sync"

	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
)

// SpectreV1Program builds the classic bounds-bypass victim,
// if (i < N) transmit(A[i]), with secret placed just past the array. The
// bounds value N is loaded from memory (a cold miss), so the bounds check
// resolves slowly; the first dynamic instance of the branch has no
// predictor state and is predicted not-taken (fall-through into the
// gadget), giving a deterministic misprediction window.
func SpectreV1Program(secret byte) *isa.Program {
	k := NewKit("spectre-v1", secret)
	k.VictimArray().SetSlowCell(ArrayLen)
	b := k.B
	b.Movi(1, ArrayBase)  // r1 = A
	b.Movi(3, OOBIndex()) // r3 = attacker-controlled index (out of bounds)
	k.EmitProbeBase(8)    // r8 = probe array
	k.EmitSlowLoad(4)     // r4 = N, only after two serialized misses
	b.Bgeu(3, 4, "done")  // bounds check: architecturally TAKEN (i >= N)
	b.Shli(5, 3, 3)
	b.Add(5, 5, 1)
	b.Ldb(6, 5, 0)              // transient out-of-bounds read of the secret
	k.EmitTransmitLoad(6, 7, 8) // transmitter: touches probe line <secret>
	b.Label("done")
	b.Halt()
	return k.MustBuild()
}

// NonSpecSecretProgram builds the constant-time-victim scenario from §3:
// the secret is read into a register *non-speculatively* and only used in
// data-oblivious computation, so it never leaks in any correct execution.
// A mispredicted branch then transiently steers execution into a transmit
// gadget that encodes the secret register into the probe array.
//
// STT does not protect this (the secret is non-speculatively accessed);
// SPT taints it until it is non-speculatively leaked — which never
// happens — so the gadget's transmitter is delayed until squash.
func NonSpecSecretProgram(secret byte) *isa.Program {
	k := NewKit("nonspec-secret", secret)
	k.SetSlowCell(1)
	b := k.B
	k.EmitLoadSecret(9, 1) // SECRET loaded non-speculatively (retires normally)
	k.EmitProbeBase(8)     // r8 = probe array
	// Constant-time computation over the secret: no secret-dependent
	// branches or addresses (data-oblivious).
	b.Xori(10, 9, 0x5A)
	b.Andi(10, 10, 0x7F)
	b.Add(11, 10, 10)
	// Attacker-influenced control flow: the guard value arrives from a
	// cold load, and the first dynamic branch instance mispredicts
	// not-taken, transiently running the gadget below.
	k.EmitSlowLoad(4)           // r4 = guard = 1, after two serialized misses
	b.Bne(4, 0, "done")         // architecturally TAKEN (guard != 0)
	k.EmitTransmitLoad(9, 7, 8) // transmitter on the non-speculative secret
	b.Label("done")
	b.Halt()
	return k.MustBuild()
}

// Result describes what the receiver observed after a victim run.
type Result struct {
	// Leaked reports whether exactly one probe line was resident.
	Leaked bool
	// Value is the leaked byte when Leaked.
	Value byte
	// ResidentLines counts probe lines found in the cache.
	ResidentLines int
}

// Run executes the victim under the given policy and model, then probes
// the cache. The probe checks L1D, L2 and L3 residency (Flush+Reload-style
// receivers see any level).
func Run(prog *isa.Program, model pipeline.AttackModel, pol pipeline.Policy) (Result, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	core, err := pipeline.New(cfg, prog, hier, pol)
	if err != nil {
		return Result{}, err
	}
	if err := core.Run(10_000_000, 100_000_000); err != nil {
		return Result{}, err
	}
	if !core.Finished() {
		return Result{}, fmt.Errorf("attack: victim did not finish")
	}
	return Probe(hier), nil
}

// Probe inspects the cache for resident probe lines.
func Probe(hier *mem.Hierarchy) Result {
	var res Result
	for v := 0; v < 256; v++ {
		addr := uint64(ProbeBase + v*ProbeLine)
		_, inL1 := hier.L1D.Probe(addr)
		_, inL2 := hier.L2.Probe(addr)
		_, inL3 := hier.L3.Probe(addr)
		if inL1 || inL2 || inL3 {
			res.ResidentLines++
			res.Value = byte(v)
		}
	}
	res.Leaked = res.ResidentLines == 1
	return res
}

// ObservationTrace runs prog and records every observable memory-system
// event (load line accesses, store translations, retirement writes) with
// its cycle. Identical traces across secret values mean the secret is
// unobservable (Definition 1's observational-determinism reading).
func ObservationTrace(prog *isa.Program, model pipeline.AttackModel, pol pipeline.Policy) ([]string, error) {
	trace, _, finished, err := Observe(prog, model, pol)
	if err != nil {
		return nil, err
	}
	if !finished {
		return nil, fmt.Errorf("attack: victim did not finish")
	}
	return trace, nil
}

// Observe runs prog on the Table-1 machine under model and pol and returns
// its observation trace, a copy of the finished core's statistics, and
// whether HALT retired within the run bounds. Each event is recorded as
// "<kind>@<cycle>:<addr>": load line accesses ('L'), store translations
// ('T'), retirement writes ('W') and the retirement replay of an
// obliviously executed load ('R'). The error is the core's own: a program
// that fails validation, or a livelock.
//
// Observe keeps idle cores in a pool, each with its own hierarchy and
// predictor, and Resets one for the run when it can, so the oracle's
// thousands of tiny runs pay for a reset instead of a construction. The
// result is the same as on a newly built core.
func Observe(prog *isa.Program, model pipeline.AttackModel, pol pipeline.Policy) (trace []string, st pipeline.Stats, finished bool, err error) {
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	core, _ := idleCores.Get().(*pipeline.Core)
	if core == nil {
		if core, err = pipeline.New(cfg, prog, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol); err != nil {
			return nil, pipeline.Stats{}, false, err
		}
	} else if err = core.Reset(cfg, prog, pol); err != nil {
		release(core)
		return nil, pipeline.Stats{}, false, err
	}
	defer release(core)
	core.Observer = func(kind byte, cycle uint64, addr uint64) {
		trace = append(trace, fmt.Sprintf("%c@%d:%#x", kind, cycle, addr))
	}
	if err := core.Run(10_000_000, 100_000_000); err != nil {
		return nil, pipeline.Stats{}, false, err
	}
	return trace, core.Stats, core.Finished(), nil
}

// idleCores holds Observe's cores between runs.
var idleCores sync.Pool

// release drops c's references to the caller's program, memory image,
// policy and trace, then hands c back to the pool.
func release(c *pipeline.Core) {
	c.Prog, c.Mem, c.Pol = nil, nil, nil
	c.Observer, c.Tracer, c.TickWrote = nil, nil, nil
	c.Hier.L1D.OnFill, c.Hier.L1D.OnEvict = nil, nil
	idleCores.Put(c)
}
