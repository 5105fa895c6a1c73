// Package pipeline implements the cycle-level out-of-order core the SPT
// paper's defenses are built into: an 8-wide machine with register renaming
// (RAT + physical register file + free list), a 192-entry reorder buffer, a
// unified reservation station, a split load/store queue with store-to-load
// forwarding and memory-dependence speculation, branch prediction with
// delayed (policy-gated) resolution effects, and in-order retirement.
//
// Protection schemes (SPT, STT, the secure baseline) plug in through the
// Policy interface: they observe renames, visibility-point crossings, load
// completions and store retirement, and they gate when transmitters may
// execute and when control-flow resolution effects may become visible.
package pipeline

import (
	"context"
	"fmt"

	"spt/internal/emu"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/predictor"
	"spt/internal/stats"
)

// AttackModel selects the visibility-point definition (paper §2.2.1).
type AttackModel uint8

const (
	// Spectre covers control-flow speculation: an instruction reaches the
	// visibility point when all older control-flow instructions have
	// resolved.
	Spectre AttackModel = iota
	// Futuristic covers all speculation: an instruction reaches the
	// visibility point when it can no longer be squashed.
	Futuristic
)

func (m AttackModel) String() string {
	if m == Spectre {
		return "spectre"
	}
	return "futuristic"
}

// Config sizes the core (paper Table 1).
type Config struct {
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	RetireWidth int

	ROBSize  int
	RSSize   int
	LQSize   int
	SQSize   int
	PhysRegs int

	// FrontendDepth is the fetch-to-rename latency in cycles.
	FrontendDepth uint64
	// FetchBufferSize bounds the decoupled fetch queue.
	FetchBufferSize int

	// Functional unit pool.
	ALUs     int
	MemPorts int

	// Latencies by op class.
	ALULatency uint64
	MulLatency uint64
	DivLatency uint64

	Model AttackModel
}

// DefaultConfig returns the paper's Table 1 core: 8-wide, 192 ROB, 32/32
// LQ/SQ.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      8,
		RenameWidth:     8,
		IssueWidth:      8,
		RetireWidth:     8,
		ROBSize:         192,
		RSSize:          96,
		LQSize:          32,
		SQSize:          32,
		PhysRegs:        320,
		FrontendDepth:   5,
		FetchBufferSize: 48,
		ALUs:            6,
		MemPorts:        2,
		ALULatency:      1,
		MulLatency:      3,
		DivLatency:      12,
		Model:           Futuristic,
	}
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if need := isa.NumRegs + c.ROBSize/2; c.PhysRegs < need {
		return fmt.Errorf("pipeline: %d physical registers cannot cover %d architectural + %d in-flight; need at least %d",
			c.PhysRegs, isa.NumRegs, c.ROBSize/2, need)
	}
	if c.ROBSize <= 0 || c.RSSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("pipeline: queue sizes must be positive")
	}
	if c.FetchWidth <= 0 || c.RenameWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("pipeline: widths must be positive")
	}
	if c.FetchBufferSize <= 0 {
		return fmt.Errorf("pipeline: fetch buffer size must be positive")
	}
	return nil
}

// PhysReg indexes the physical register file; -1 means "none".
type PhysReg int16

// NoReg marks an absent register operand.
const NoReg PhysReg = -1

// DynInst is one in-flight dynamic instruction (a ROB entry).
type DynInst struct {
	Seq uint64
	PC  uint64
	Ins isa.Instruction

	// Decoded classification and access width, cached at rename so the
	// per-cycle loops avoid re-deriving them from the opcode (and copying
	// the Instruction struct) millions of times per simulated second.
	IsLd  bool
	IsSt  bool
	MemSz uint64

	// Renamed operands. Unused slots are NoReg.
	Src1, Src2 PhysReg
	Dst        PhysReg
	OldDst     PhysReg // previous mapping of the architectural dest

	// Pipeline status.
	Dispatched bool // occupies an RS slot (until issued)
	// rdy1/rdy2 memoize observed source readiness while the entry waits in
	// the RS. Readiness is monotone for an in-flight consumer: a physical
	// register is only recycled after the instruction that overwrote its
	// architectural mapping retires, and in-order retirement means every
	// older consumer has retired (and therefore issued) by then.
	rdy1, rdy2 bool
	Issued     bool
	Done       bool // result available (DoneCycle reached)
	DoneCycle  uint64
	Squashed   bool
	Retired    bool

	// Control flow.
	IsCF         bool
	Resolved     bool // resolution effects applied (or none needed)
	OutcomeKnown bool // execute computed the outcome
	ActualTaken  bool
	ActualTarget uint64
	Cp           predictor.Checkpoint
	Mispredicted bool

	// Memory.
	EffAddr   uint64
	AddrKnown bool // effective address computed (virtual, pre-translate)
	MemIssued bool // TLB/cache access started (the transmitting event)
	// FwdStore points at the ROB ring slot of the store this load forwarded
	// from (nil = memory). Ring slots are recycled after retirement, so the
	// pointer is only dereferenceable while FwdLive() holds; FwdSeq is the
	// stable identity of the forwarding store.
	FwdStore  *DynInst
	FwdSeq    uint64
	Violation bool // squash pending due to memory-dependence violation
	// The older store the violating load conflicts with, captured by value
	// (Seq and the address operand are immutable after rename) so the
	// reference stays valid even if the store's ROB slot is recycled.
	HasViolStore bool
	ViolStoreSeq uint64
	ViolSrc1     PhysReg
	violCheck    bool // store: younger loads were checked for violations

	// Predictor snapshots taken at fetch, for squash recovery.
	HistAt predictor.History
	RasAt  predictor.RASSnapshot
	HasCp  bool

	// Value produced (for dst-writing instructions) and store data.
	Val uint64

	// AtVP: the instruction has reached the visibility point.
	AtVP bool

	// Oblivious: the memory access was performed data-obliviously (no
	// speculative cache/TLB change); the real access replays at retire.
	Oblivious bool

	// DelayedByPolicy notes the instruction was blocked at least once.
	DelayedByPolicy bool

	// RenameCycle is the cycle this instruction was renamed, the anchor for
	// the RS-delay and VP-distance distributions.
	RenameCycle uint64
	// delayCycles counts the cycles this memory instruction was
	// policy-blocked before its access started (feeds TransmitterDelay).
	delayCycles uint32
	// blocked records memStage's verdict at this instruction's latest visit:
	// the policy held its access back. A quiet-cycle skip advances
	// delayCycles by the skipped cycles for every such instruction.
	blocked bool
}

// FwdLive reports whether ld's forwarding store still occupies its ROB ring
// slot, i.e. whether ld.FwdStore may be dereferenced for live state (taint
// of its operands, AtVP). When false the store has retired (retirement is
// the only way a forwarding source leaves the window while the load stays)
// and only ld.FwdSeq identifies it.
func (ld *DynInst) FwdLive() bool {
	return ld.FwdStore != nil && ld.FwdStore.Seq == ld.FwdSeq && !ld.FwdStore.Retired
}

// Stats aggregates core-level counters. Every field is a plain uint64 (or
// an inline stats.Hist): the per-cycle loops increment them with ordinary
// struct-field adds, and the stats registry (built on first use) only
// holds pointers to them — zero overhead when hot, no allocation per event.
type Stats struct {
	Cycles  uint64
	Retired uint64
	Fetched uint64
	Renamed uint64
	Issued  uint64

	// FastForwarded is the functionally executed (skipped) instruction
	// count of the snapshot this core booted from; 0 for a from-reset core.
	// It is set once at construction, never by the cycle loop.
	FastForwarded uint64

	BranchResolutions  uint64
	BranchMispredicts  uint64
	Squashes           uint64
	SquashedInstrs     uint64
	MemViolations      uint64
	STLForwards        uint64
	TransmitterDelays  uint64 // cycles a ready transmitter was policy-blocked
	ResolutionDelays   uint64 // cycles an outcome-known branch waited for policy
	RetireStallsMemory uint64
	ObliviousExecs     uint64 // memory ops executed data-obliviously

	LoadsExecuted  uint64 // loads whose memory access started
	StoresExecuted uint64 // stores whose address translation started
	VPCrossings    uint64 // instructions that reached the visibility point
	// DelayedTransmitters counts distinct memory instructions that were
	// policy-blocked for at least one cycle before their access finally
	// started (the paper's Fig. 10 numerator; TransmitterDelays counts the
	// blocked cycles themselves).
	DelayedTransmitters uint64

	// Distributions (power-of-two buckets; see internal/stats).
	SquashDepth      stats.Hist // instructions squashed per squash event
	RSDelay          stats.Hist // cycles from rename to issue
	VPDistance       stats.Hist // cycles from rename to the visibility point
	TransmitterDelay stats.Hist // blocked cycles per delayed transmitter
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// ObliviousPolicy is an optional extension of Policy implementing the
// paper's alternative protection (§6.3): instead of delaying a blocked
// transmitter, execute it in a data-oblivious fashion — no speculative
// TLB/cache state change and a fixed, operand-independent latency (in the
// spirit of SDO, Yu et al. ISCA'20). The real cache access is replayed
// non-speculatively at retirement.
type ObliviousPolicy interface {
	// ObliviousLatency returns the fixed completion latency for a blocked
	// memory instruction and whether oblivious execution should be used.
	ObliviousLatency(di *DynInst) (uint64, bool)
}

// STLQuery is an optional Policy extension: it reports whether the fact
// that store st forwards to load ld is already public (the paper's
// STLPublic condition, §6.7). When it holds — or on the unprotected
// machine — the load skips the camouflage cache access and forwards fast;
// otherwise the forwarded value is withheld until the cache access
// completes, hiding the forwarding decision.
type STLQuery interface {
	STLForwardPublic(st, ld *DynInst) bool
}

// Tracer receives per-instruction lifecycle events for debugging and the
// --track-insts output. Stage names: rename, issue, mem, complete,
// resolve, mispredict, vp, retire, squash.
type Tracer interface {
	Event(cycle uint64, di *DynInst, stage string)
}

// Policy is the protection scheme hook. The zero policy (nil) is the
// unsafe baseline: everything is always allowed.
type Policy interface {
	// Attach gives the policy access to the core. Called once.
	Attach(c *Core)
	// OnRename runs after di's registers are renamed, before dispatch.
	OnRename(di *DynInst)
	// OnSquash runs for every squashed instruction, youngest first.
	OnSquash(di *DynInst)
	// OnRetire runs when di retires (stores have written the cache).
	OnRetire(di *DynInst)
	// OnVP runs when di crosses the visibility point (declassification).
	OnVP(di *DynInst)
	// OnLoadComplete runs when a load's data arrives (di.FwdStore tells
	// whether it was forwarded).
	OnLoadComplete(di *DynInst)
	// MayExecuteMem gates a load/store's TLB+cache access.
	MayExecuteMem(di *DynInst) bool
	// MayResolveCF gates a control-flow instruction's resolution effects.
	MayResolveCF(di *DynInst) bool
	// MaySquashOnViolation gates the memory-dependence-violation squash of
	// load ld (an implicit branch over the involved store/load addresses).
	MaySquashOnViolation(ld *DynInst) bool
	// Tick runs once per cycle after retire/VP update (untaint propagation).
	Tick()
}

// Core is the simulated processor.
type Core struct {
	Cfg   Config
	Prog  *isa.Program
	Mem   *emu.Memory // functional backing store
	Hier  *mem.Hierarchy
	Pred  *predictor.Unit
	Pol   Policy
	Stats Stats

	// Observer, if non-nil, receives every microarchitecturally observable
	// memory-system event: speculative and non-speculative load cache
	// accesses ('L'), store address translations ('T'), and retirement
	// cache writes ('W'). The security tests compare these traces across
	// secret values (observational determinism).
	Observer func(kind byte, cycle uint64, addr uint64)

	// Tracer, if non-nil, receives per-instruction lifecycle events
	// (rename, issue, mem, complete, resolve, mispredict, vp, retire,
	// squash). internal/trace renders these; cmd/spt-sim exposes them as
	// the artifact's --track-insts.
	Tracer Tracer

	// TickWrote, if non-nil, reports whether the policy's last Tick wrote
	// any taint. A policy sets it in Attach. RunCtx skips quiet cycles only
	// when it reports false, so a policy that sets nothing is never skipped
	// past; the unsafe baseline (nil Pol) has no Tick and needs no answer.
	TickWrote func() bool

	// Golden-model oracle state is NOT kept here; tests construct their own
	// emulator and compare after the run.

	cycle uint64
	seq   uint64
	// active records that the current cycle changed something besides the
	// per-cycle stall counters (see RunCtx's quiet-cycle skip).
	active bool

	// Fetch. The decoupled fetch buffer is a fixed-capacity ring of inline
	// fetchEntry values (no per-instruction allocation).
	fetchPC       uint64
	fetchStallTil uint64
	fetchBuf      []fetchEntry // cap Cfg.FetchBufferSize
	fbHead, fbLen int
	halted        bool // HALT fetched (stop fetching); sim ends when it retires
	finished      bool // HALT retired

	// Rename.
	rat      [isa.NumRegs]PhysReg
	freeList []PhysReg
	prf      []uint64
	prfReady []bool

	// Windows. The ROB is a fixed-capacity ring of inline DynInst values in
	// program order; a slot is recycled once its instruction retires or is
	// squashed, so the steady-state cycle loop allocates nothing. LQ/SQ are
	// rings of pointers into the ROB ring (stable while the instruction is
	// in flight).
	rob             []DynInst // cap Cfg.ROBSize
	robHead, robLen int
	lq              []*DynInst // cap Cfg.LQSize
	lqHead, lqLen   int
	sq              []*DynInst // cap Cfg.SQSize
	sqHead, sqLen   int

	// rsCount tracks occupied RS slots (dispatched, not yet issued).
	rsCount int
	// rsList is the age-ordered list of occupied RS slots issue() scans,
	// so a cycle costs O(RS occupancy) instead of O(ROB span). Entries are
	// validated against the recorded sequence number and the Dispatched
	// flag: a squash clears Dispatched (and slot recycling changes Seq), so
	// stale references are dropped lazily during the next scan.
	rsList []rsRef
	// cfUnresolved counts in-flight control-flow instructions whose
	// resolution effects are still pending (lets resolveBranches skip the
	// window scan on branch-free cycles).
	cfUnresolved int
	// execOutstanding counts issued non-memory instructions whose result is
	// not yet available (lets completeExecution bound its window scan).
	execOutstanding int
	// memIncomplete counts in-flight memory instructions that are not Done,
	// and violPending counts loads with a pending memory-dependence
	// violation. Together with cfUnresolved they let updateVP and
	// resolveViolations skip their window scans on quiet cycles.
	memIncomplete int
	violPending   int

	// Monotone prefix-skip indexes: the number of leading entries of each
	// ring that their per-cycle scan can never act on again. Each skipped
	// prefix only grows while the ring is stable; popping the head
	// decrements the index and a squash clamps it to the new length, so
	// scan order (and therefore every observable effect) is unchanged.
	execSkip   int // ROB prefix: Done or memory (completeExecution)
	cfSkip     int // ROB prefix: resolved or not control flow (resolveBranches)
	vpSkip     int // ROB prefix: already at the visibility point (updateVP)
	lqMemSkip  int // LQ prefix: access started or violation pending (memStage)
	lqDoneSkip int // LQ prefix: load complete (completeExecution)
	sqMemSkip  int // SQ prefix: translated and violation-checked (memStage)
	sqDoneSkip int // SQ prefix: store complete (completeExecution)

	// Execution resources.
	aluBusyUntil []uint64
	memBusy      int // mem port uses this cycle

	squashedThisCycle bool

	// statReg is the gem5-style registry of every counter above plus the
	// memory system's, predictors', and policy's. StatsRegistry builds it
	// on first use; the cycle loop never touches it.
	statReg *stats.Registry
}

// New builds a core for prog with the given memory system and policy
// (nil for the unsafe baseline).
func New(cfg Config, prog *isa.Program, hier *mem.Hierarchy, pol Policy) (*Core, error) {
	c := new(Core)
	if err := newCore(c, cfg, prog, hier, pol, loadedMemory(prog), predictor.NewUnit(), prog.Entry); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset reinitializes c in place for a run of prog under pol, making it
// exactly the core New(cfg, prog, h, pol) would build, where h is a fresh
// hierarchy of c.Hier's configuration: a new functional memory loaded with
// prog's data image, c's hierarchy and predictor reset to their
// constructors' state, every statistic zero, Observer, Tracer and
// TickWrote nil, and pol attached. It keeps c's storage — the ROB and
// fetch-buffer rings, register file, LQ/SQ rings and the rest — so a run
// of a tiny program pays for a clear instead of a construction. c's
// hierarchy and predictor are reset and kept, so they must not be shared:
// not with another core, nor with warm state a caller keeps (a
// checkpoint's, say). After an error c must be Reset again before it runs.
func (c *Core) Reset(cfg Config, prog *isa.Program, pol Policy) error {
	c.Hier.Reset()
	c.Pred.Reset()
	return newCore(c, cfg, prog, c.Hier, pol, loadedMemory(prog), c.Pred, prog.Entry)
}

// loadedMemory returns a new functional memory holding prog's data image.
func loadedMemory(prog *isa.Program) *emu.Memory {
	m := emu.NewMemory()
	m.LoadSegments(prog.Data)
	return m
}

// BootFromSnapshot builds a core that resumes from a functional snapshot
// instead of reset: the architectural registers seed the initial RAT
// mappings' physical registers, fetch starts at the snapshot PC, and the
// memory image is restored copy-on-write (the snapshot itself stays
// immutable and reusable). pred, if non-nil, supplies a functionally
// warmed branch-prediction unit (the caller keeps ownership semantics:
// pass a clone when the warm state is shared); nil boots a cold one. The
// cycle counter and every statistic start at zero, so the measured region
// covers only detailed execution; Stats.FastForwarded records the
// snapshot's functionally executed prefix.
func BootFromSnapshot(cfg Config, prog *isa.Program, hier *mem.Hierarchy, pol Policy, snap *emu.Snapshot, pred *predictor.Unit) (*Core, error) {
	if !snap.Halted && snap.PC >= uint64(len(prog.Code)) {
		return nil, fmt.Errorf("pipeline: snapshot pc %d out of range for %s (%d instructions)", snap.PC, prog.Name, len(prog.Code))
	}
	if pred == nil {
		pred = predictor.NewUnit()
	}
	c := new(Core)
	if err := newCore(c, cfg, prog, hier, pol, snap.NewMemory(), pred, snap.PC); err != nil {
		return nil, err
	}
	// Seed the architectural register values through the reset RAT (arch
	// register r maps to physical register r; register 0 stays hardwired).
	for r := 1; r < isa.NumRegs; r++ {
		c.prf[c.rat[r]] = snap.Regs[r]
	}
	c.Stats.FastForwarded = snap.Retired
	if snap.Halted {
		// Snapshot taken after HALT: there is nothing left to simulate.
		c.halted, c.finished = true, true
	}
	return c, nil
}

// newCore is the one construction path behind New, BootFromSnapshot and
// Reset: it makes c a core at the start of a run that fetches from
// entryPC. It reuses c's ROB and fetch-buffer rings, register file, LQ/SQ
// rings, ALU array, RS list and free list where they are large enough,
// cleared, and allocates them otherwise. Every other field is set by one
// struct literal, which leaves Observer, Tracer, TickWrote and the stats
// registry nil.
func newCore(c *Core, cfg Config, prog *isa.Program, hier *mem.Hierarchy, pol Policy, m *emu.Memory, pred *predictor.Unit, entryPC uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	*c = Core{
		Cfg:          cfg,
		Prog:         prog,
		Mem:          m,
		Hier:         hier,
		Pred:         pred,
		Pol:          pol,
		fetchPC:      entryPC,
		fetchBuf:     reuse(c.fetchBuf, cfg.FetchBufferSize),
		prf:          reuse(c.prf, cfg.PhysRegs),
		prfReady:     reuse(c.prfReady, cfg.PhysRegs),
		freeList:     reuse(c.freeList, cfg.PhysRegs)[:0],
		rob:          reuse(c.rob, cfg.ROBSize),
		lq:           reuse(c.lq, cfg.LQSize),
		sq:           reuse(c.sq, cfg.SQSize),
		aluBusyUntil: reuse(c.aluBusyUntil, cfg.ALUs),
		// Live entries never exceed RSSize; stale references linger at most
		// until the next issue() compaction, bounded by one squash burst
		// plus one rename group.
		rsList: reuse(c.rsList, 2*cfg.RSSize+cfg.RenameWidth)[:0],
	}
	// Physical register 0 is the hardwired zero: always ready, never freed.
	c.prfReady[0] = true
	for r := 0; r < isa.NumRegs; r++ {
		if r == 0 {
			c.rat[r] = 0
			continue
		}
		c.rat[r] = PhysReg(r)
		c.prfReady[r] = true
	}
	for p := isa.NumRegs; p < cfg.PhysRegs; p++ {
		c.freeList = append(c.freeList, PhysReg(p))
	}
	if pol != nil {
		pol.Attach(c)
	}
	return nil
}

// reuse returns s cut to n elements and cleared when its capacity allows,
// and a new slice of n elements otherwise.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// StatsRegistrar is an optional Policy (or component) extension: implementors
// publish their counters into the core's registry when it is built.
type StatsRegistrar interface {
	RegisterStats(r *stats.Registry)
}

// StatsRegistry returns the core's stats registry, for a caller to dump
// after the run. The registry is built on the first call and the same one
// is returned after that; it holds pointers to the live counters, so a
// dump reads their values at the time of the dump. Most runs (the leakage
// oracle's) never dump, so they never pay for registration.
func (c *Core) StatsRegistry() *stats.Registry {
	if c.statReg == nil {
		c.registerStats()
	}
	return c.statReg
}

// registerStats publishes every simulator counter into the registry, in a
// fixed order so dumps are deterministic: the core's, the memory system's,
// the predictor's, then the policy's. Only simulation-derived values are
// registered — host-dependent measurements (wall time, throughput) are kept
// off the registry entirely so stats dumps are safe for golden comparisons.
func (c *Core) registerStats() {
	r := stats.New()
	c.statReg = r
	s := &c.Stats

	perKilo := func(num *uint64) func() float64 {
		return func() float64 {
			if s.Retired == 0 {
				return 0
			}
			return 1000 * float64(*num) / float64(s.Retired)
		}
	}

	r.Scalar("sim.cycles", "simulated clock cycles", &s.Cycles)
	r.Scalar("sim.insts", "retired instructions", &s.Retired)
	r.Scalar("sim.ff_insts", "instructions fast-forwarded functionally before this region", &s.FastForwarded)
	r.Formula("sim.ipc", "retired instructions per cycle", func() float64 {
		return s.IPC()
	})
	r.Scalar("fetch.insts", "instructions fetched", &s.Fetched)
	r.Scalar("rename.insts", "instructions renamed", &s.Renamed)
	r.Scalar("issue.insts", "instructions issued to execute", &s.Issued)
	r.Hist("issue.rs_delay", "cycles from rename to issue", &s.RSDelay)

	r.Scalar("branch.resolutions", "control-flow instructions resolved", &s.BranchResolutions)
	r.Scalar("branch.mispredicts", "mispredicted control-flow instructions", &s.BranchMispredicts)
	r.Formula("branch.mpki", "branch mispredicts per kilo-instruction", perKilo(&s.BranchMispredicts))
	r.Scalar("branch.resolution_delays", "cycles outcome-known branches waited for policy", &s.ResolutionDelays)

	r.Scalar("squash.events", "pipeline squashes", &s.Squashes)
	r.Scalar("squash.insts", "instructions squashed", &s.SquashedInstrs)
	r.Formula("squash.pki", "squash events per kilo-instruction", perKilo(&s.Squashes))
	r.Hist("squash.depth", "instructions squashed per squash event", &s.SquashDepth)
	r.Scalar("squash.mem_violations", "memory-dependence violation squashes", &s.MemViolations)

	r.Scalar("mem.loads_executed", "loads whose cache/TLB access started", &s.LoadsExecuted)
	r.Scalar("mem.stores_executed", "stores whose address translation started", &s.StoresExecuted)
	r.Scalar("mem.stl_forwards", "loads forwarded from an older store", &s.STLForwards)
	r.Scalar("mem.retire_stalls", "retire stalls waiting on memory", &s.RetireStallsMemory)

	r.Scalar("policy.delayed_transmitters", "memory instructions policy-blocked at least one cycle", &s.DelayedTransmitters)
	r.Scalar("policy.transmitter_delay_cycles", "total cycles ready transmitters were policy-blocked", &s.TransmitterDelays)
	r.Hist("policy.transmitter_delay", "blocked cycles per delayed transmitter", &s.TransmitterDelay)
	r.Formula("policy.delayed_transmitter_pct", "percent of executed memory ops delayed by policy", func() float64 {
		execd := s.LoadsExecuted + s.StoresExecuted
		if execd == 0 {
			return 0
		}
		return 100 * float64(s.DelayedTransmitters) / float64(execd)
	})
	r.Scalar("policy.oblivious_execs", "memory ops executed data-obliviously", &s.ObliviousExecs)

	r.Scalar("vp.crossings", "instructions that reached the visibility point", &s.VPCrossings)
	r.Hist("vp.distance", "cycles from rename to the visibility point", &s.VPDistance)

	if c.Hier != nil {
		c.Hier.RegisterStats(r, perKilo)
	}
	c.Pred.RegisterStats(r)
	if sr, ok := c.Pol.(StatsRegistrar); ok {
		sr.RegisterStats(r)
	}
}

type fetchEntry struct {
	pc         uint64
	ins        isa.Instruction
	readyCycle uint64
	cp         predictor.Checkpoint
	hasCp      bool
	predTarget uint64
	histAt     predictor.History
	rasAt      predictor.RASSnapshot
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Finished reports whether the program's HALT has retired.
func (c *Core) Finished() bool { return c.finished }

// robAt returns the i-th oldest in-flight instruction (0 = head). The
// returned pointer is stable while the instruction is in flight; the slot
// is recycled after retirement or squash.
func (c *Core) robAt(i int) *DynInst {
	j := c.robHead + i
	if j >= len(c.rob) {
		j -= len(c.rob)
	}
	return &c.rob[j]
}

// rsRef is a seq-validated reference to a reservation-station entry. The
// pointer targets a ROB ring slot; the reference is live only while the
// slot still holds the recorded sequence number and the instruction is
// still dispatched-but-unissued.
type rsRef struct {
	di  *DynInst
	seq uint64
}

// robPush claims and zeroes the ring slot behind the youngest instruction.
// The caller must have checked robLen < Cfg.ROBSize.
func (c *Core) robPush() *DynInst {
	di := c.robAt(c.robLen)
	*di = DynInst{}
	c.robLen++
	return di
}

// robPopHead releases the oldest slot. The popped entry stays readable
// until rename recycles the slot (at least a full ROB wrap later).
func (c *Core) robPopHead() {
	c.robHead++
	if c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robLen--
	if c.execSkip > 0 {
		c.execSkip--
	}
	if c.cfSkip > 0 {
		c.cfSkip--
	}
	if c.vpSkip > 0 {
		c.vpSkip--
	}
}

func (c *Core) lqAt(i int) *DynInst {
	j := c.lqHead + i
	if j >= len(c.lq) {
		j -= len(c.lq)
	}
	return c.lq[j]
}

func (c *Core) lqPush(di *DynInst) {
	j := c.lqHead + c.lqLen
	if j >= len(c.lq) {
		j -= len(c.lq)
	}
	c.lq[j] = di
	c.lqLen++
}

func (c *Core) lqPopHead() {
	c.lq[c.lqHead] = nil
	c.lqHead++
	if c.lqHead == len(c.lq) {
		c.lqHead = 0
	}
	c.lqLen--
	if c.lqMemSkip > 0 {
		c.lqMemSkip--
	}
	if c.lqDoneSkip > 0 {
		c.lqDoneSkip--
	}
}

func (c *Core) sqAt(i int) *DynInst {
	j := c.sqHead + i
	if j >= len(c.sq) {
		j -= len(c.sq)
	}
	return c.sq[j]
}

func (c *Core) sqPush(di *DynInst) {
	j := c.sqHead + c.sqLen
	if j >= len(c.sq) {
		j -= len(c.sq)
	}
	c.sq[j] = di
	c.sqLen++
}

func (c *Core) sqPopHead() {
	c.sq[c.sqHead] = nil
	c.sqHead++
	if c.sqHead == len(c.sq) {
		c.sqHead = 0
	}
	c.sqLen--
	if c.sqMemSkip > 0 {
		c.sqMemSkip--
	}
	if c.sqDoneSkip > 0 {
		c.sqDoneSkip--
	}
}

// ROBLen reports the number of in-flight instructions; ROBAt indexes them
// oldest first (0 = next to retire). Policies iterate the window with these
// instead of a materialized slice so the steady-state loop stays
// allocation-free.
func (c *Core) ROBLen() int          { return c.robLen }
func (c *Core) ROBAt(i int) *DynInst { return c.robAt(i) }

// LQLen/LQAt and SQLen/SQAt expose the memory queues, oldest first.
func (c *Core) LQLen() int          { return c.lqLen }
func (c *Core) LQAt(i int) *DynInst { return c.lqAt(i) }
func (c *Core) SQLen() int          { return c.sqLen }
func (c *Core) SQAt(i int) *DynInst { return c.sqAt(i) }

// robWindowFrom, lqWindowFrom, and sqWindowFrom return the ring entries
// from logical index i (oldest = 0) to the tail as up to two contiguous
// segments, for the per-cycle scans that resume past a skipped prefix.
func (c *Core) robWindowFrom(i int) (a, b []DynInst) {
	n := len(c.rob)
	j := c.robHead + i
	end := c.robHead + c.robLen
	if j >= n {
		return c.rob[j-n : end-n], nil
	}
	if end <= n {
		return c.rob[j:end], nil
	}
	return c.rob[j:], c.rob[:end-n]
}

func (c *Core) lqWindowFrom(i int) (a, b []*DynInst) {
	n := len(c.lq)
	j := c.lqHead + i
	end := c.lqHead + c.lqLen
	if j >= n {
		return c.lq[j-n : end-n], nil
	}
	if end <= n {
		return c.lq[j:end], nil
	}
	return c.lq[j:], c.lq[:end-n]
}

func (c *Core) sqWindowFrom(i int) (a, b []*DynInst) {
	n := len(c.sq)
	j := c.sqHead + i
	end := c.sqHead + c.sqLen
	if j >= n {
		return c.sq[j-n : end-n], nil
	}
	if end <= n {
		return c.sq[j:end], nil
	}
	return c.sq[j:], c.sq[:end-n]
}

// LQWindow and SQWindow return the memory queues, oldest first, as their
// two contiguous ring segments (the second is empty until the ring wraps),
// so per-cycle scans range over plain slices with no per-index ring
// arithmetic.
func (c *Core) LQWindow() (older, younger []*DynInst) {
	end := c.lqHead + c.lqLen
	if end <= len(c.lq) {
		return c.lq[c.lqHead:end], nil
	}
	return c.lq[c.lqHead:], c.lq[:end-len(c.lq)]
}

func (c *Core) SQWindow() (older, younger []*DynInst) {
	end := c.sqHead + c.sqLen
	if end <= len(c.sq) {
		return c.sq[c.sqHead:end], nil
	}
	return c.sq[c.sqHead:], c.sq[:end-len(c.sq)]
}

// PhysRegCount reports the size of the physical register file.
func (c *Core) PhysRegCount() int { return c.Cfg.PhysRegs }

// RegValue reads a physical register (for policies and tests).
func (c *Core) RegValue(p PhysReg) uint64 { return c.prf[p] }

// RegReady reports whether a physical register has been written.
func (c *Core) RegReady(p PhysReg) bool { return p == NoReg || c.prfReady[p] }

// ArchRegs returns the current architectural register values (valid when
// the pipeline is drained, i.e. after Finished).
func (c *Core) ArchRegs() [isa.NumRegs]uint64 {
	var out [isa.NumRegs]uint64
	for r := 0; r < isa.NumRegs; r++ {
		out[r] = c.prf[c.rat[r]]
	}
	return out
}

// Step simulates one clock cycle.
func (c *Core) Step() {
	// Stage order within a cycle: older pipeline stages act on the state
	// the younger stages produced in previous cycles.
	c.squashedThisCycle = false
	c.active = false
	c.retire()
	c.completeExecution()
	c.memStage()
	c.resolveBranches()
	c.resolveViolations()
	c.issue()
	c.renameDispatch()
	c.fetch()
	c.updateVP()
	if c.Pol != nil {
		c.Pol.Tick()
	}
	c.cycle++
	c.Stats.Cycles = c.cycle
	c.memBusy = 0
}

// Run simulates until HALT retires, maxInstructions retire, or maxCycles
// pass. It returns an error on livelock (no retirement for a long window).
func (c *Core) Run(maxInstructions, maxCycles uint64) error {
	return c.RunCtx(nil, maxInstructions, maxCycles)
}

// ctxPollMask sets how often RunCtx polls its context: every 8192 cycles —
// rare enough that the poll is invisible in profiles, frequent enough that
// cancelling a run aborts within microseconds of host time.
const ctxPollMask = 8192 - 1

// livelockCycles is the longest stretch without a retirement RunCtx
// tolerates before it reports a livelock.
const livelockCycles = 200_000

// RunCtx is Run with cooperative cancellation: every few thousand cycles
// it polls ctx and, once the context is done, stops mid-run and returns
// context.Cause(ctx). The core is left in a consistent (resumable) state.
// A nil ctx is never polled, so Run's hot loop pays nothing for the
// feature.
//
// RunCtx skips quiet cycles: after a cycle that changed nothing but the
// stall counters, and whose policy Tick wrote no taint, every following
// cycle repeats it until the next event (see nextEvent), so the clock
// jumps there and the stall counters advance in bulk. The result is the
// same, counter for counter, as calling Step once per cycle.
func (c *Core) RunCtx(ctx context.Context, maxInstructions, maxCycles uint64) error {
	lastRetired := c.Stats.Retired
	lastProgress := c.cycle
	for !c.finished && c.Stats.Retired < maxInstructions && c.cycle < maxCycles {
		if ctx != nil && c.cycle&ctxPollMask == 0 {
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			default:
			}
		}
		before := c.stallCounts()
		c.Step()
		if c.Stats.Retired != lastRetired {
			lastRetired = c.Stats.Retired
			lastProgress = c.cycle
			continue
		}
		if c.quiet() {
			// The jump stops where the stepping loop would next act: at the
			// cycle bound, at the livelock report, and at the next poll.
			limit := min(maxCycles, lastProgress+livelockCycles+1, (c.cycle+ctxPollMask)&^ctxPollMask)
			c.skipTo(min(c.nextEvent(), limit), c.stallCounts().minus(before))
		}
		if c.cycle-lastProgress > livelockCycles {
			return fmt.Errorf("pipeline: livelock at cycle %d (pc=%d, rob=%d)", c.cycle, c.fetchPC, c.robLen)
		}
	}
	return nil
}
