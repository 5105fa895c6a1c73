package symx

import (
	"fmt"

	"spt/internal/isa"
)

// Verdict is the outcome of a verification run.
type Verdict uint8

const (
	// VerdictUnknown means neither security nor a leak could be
	// established; Result.Reason says why.
	VerdictUnknown Verdict = iota
	// VerdictSecure means no pair of secret values can diverge the
	// speculative observation trace (exact for secrets up to maxEnumBytes
	// wide, conservative beyond).
	VerdictSecure
	// VerdictLeak means a concrete secret pair diverges the trace;
	// Result.Witness carries the pair, already confirmed by concrete
	// replay inside symx and replayable by the differential fuzz oracle.
	VerdictLeak
)

func (v Verdict) String() string {
	switch v {
	case VerdictSecure:
		return "secure"
	case VerdictLeak:
		return "leak"
	}
	return "unknown"
}

// Witness is a concrete secret pair exhibiting a leak.
type Witness struct {
	// SecretA and SecretB are the two secret values (little-endian bytes,
	// Config.Secret.Size wide) whose observation traces diverge.
	SecretA, SecretB []byte
	// Divergence describes the first differing trace event.
	Divergence string
}

// Result is the answer of one Verify call.
type Result struct {
	Verdict Verdict
	// Method is "symbolic" when the relational pass decided the verdict
	// on one trace, "enumeration" when it fell back to exhaustive
	// concrete evaluation of the secret domain.
	Method string
	// Reason explains a VerdictUnknown.
	Reason string
	// Witness is set iff Verdict == VerdictLeak.
	Witness *Witness
	// Events is the speculative observation trace length that was checked.
	Events int
}

// Verify checks speculative noninterference of prog under the named
// protection scheme and attack model: whether the speculative observation
// trace (load/store addresses and transient fetch redirects, at the
// pipeline observer's granularity) is independent of the secret bytes
// located by cfg.Secret, for all secret values.
//
// Scheme and model names mirror internal/fuzz (unsafe, stt, secure,
// spt-fwd, spt-bwd, spt, spt-shadowmem, spt-ideal × futuristic, spectre).
// Errors are reserved for programs outside the oracle's contract
// (validation failures, non-termination, architectural secret
// transmission — see ErrArchLeak); an in-contract program always gets a
// Result, possibly VerdictUnknown with a reason.
func Verify(prog *isa.Program, scheme, model string, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	pol, err := policyFor(scheme, model)
	if err != nil {
		return Result{}, err
	}
	if err := prog.Validate(); err != nil {
		return Result{}, err
	}
	return verify(prog, newImage(prog), pol, cfg)
}

// verify is Verify on a validated program, with its data image img shared
// by every machine the verdict needs.
func verify(prog *isa.Program, img image, pol policy, cfg Config) (Result, error) {
	budget := cfg.MaxWork
	var ctx *termCtx
	if cfg.Secret.Size <= maxEnumBytes {
		ctx = newTermCtx(cfg.Secret.Size)
	}

	m := newMachine(prog, img, pol, cfg, ctx, &budget)
	m.reset(nil)
	switch err := m.run(); err.(type) {
	case nil:
		return classify(m, prog, pol, cfg, ctx, &budget)
	case errNonUniform:
		if ctx == nil {
			return Result{Verdict: VerdictUnknown, Method: "symbolic",
				Reason: fmt.Sprintf("%v and the %d-byte secret domain is too wide to enumerate", err, cfg.Secret.Size)}, nil
		}
		return enumerate(prog, img, pol, cfg, &budget)
	case errBudget:
		return Result{Verdict: VerdictUnknown, Method: "symbolic", Reason: err.Error()}, nil
	default:
		return Result{}, err
	}
}

// ObservationEvents exposes one raw speculative observation trace: the
// symbolic one when secret is nil, a concrete replay otherwise. It is the
// hook the property tests use to pin that substituting a concrete secret
// into the symbolic trace reproduces the concrete run event for event,
// and a debugging aid for the CLI. Symbolic runs return errNonUniform's
// message as an error when a transient decision depends on the secret.
func ObservationEvents(prog *isa.Program, scheme, model string, cfg Config, secret []byte) ([]Event, error) {
	cfg = cfg.withDefaults()
	pol, err := policyFor(scheme, model)
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	budget := cfg.MaxWork
	var ctx *termCtx
	if secret == nil && cfg.Secret.Size <= maxEnumBytes {
		ctx = newTermCtx(cfg.Secret.Size)
	}
	m := newMachine(prog, newImage(prog), pol, cfg, ctx, &budget)
	m.reset(secret)
	if err := m.run(); err != nil {
		return nil, err
	}
	return m.trace, nil
}

// classify scans a completed symbolic trace: every event value uniform
// across the secret domain proves security; the first non-uniform event
// is a leak, whose witness pair is confirmed by concrete replay.
func classify(m *machine, prog *isa.Program, pol policy, cfg Config, ctx *termCtx, budget *int64) (Result, error) {
	for i, ev := range m.trace {
		if _, ok := m.uniform(ev.Addr); ok {
			continue
		}
		if ctx == nil {
			return Result{Verdict: VerdictUnknown, Method: "symbolic",
				Reason: fmt.Sprintf("event %d (%c at pc %d) may depend on the secret, and the %d-byte secret domain is too wide to enumerate",
					i, ev.Kind, ev.PC, cfg.Secret.Size)}, nil
		}
		wa, wb, _ := ctx.witnessPair(ev.Addr)
		wit, err := confirm(prog, m.img, pol, cfg, budget, wa, wb)
		if err != nil {
			return Result{}, err
		}
		if wit == nil {
			// Defensive: the relational pass and the concrete semantics
			// disagree; never expected (the property tests pin their
			// agreement), but an honest Unknown beats a wrong Leak.
			return Result{Verdict: VerdictUnknown, Method: "symbolic",
				Reason: fmt.Sprintf("event %d is secret-dependent symbolically but concrete replay of %#x vs %#x does not diverge",
					i, wa, wb)}, nil
		}
		return Result{Verdict: VerdictLeak, Method: "symbolic", Witness: wit, Events: len(m.trace)}, nil
	}
	return Result{Verdict: VerdictSecure, Method: "symbolic", Events: len(m.trace)}, nil
}

// concreteTrace replays prog on its image with a concrete secret on a
// fresh machine and returns the observation trace and the architectural
// digest. It is the reference replayDomain's reused machine is held to.
func concreteTrace(prog *isa.Program, img image, pol policy, cfg Config, budget *int64, secret []byte) ([]cEvent, uint64, error) {
	m := newMachine(prog, img, pol, cfg, nil, budget)
	m.reset(secret)
	if err := m.run(); err != nil {
		return nil, 0, err
	}
	return m.concreteEvents(secret), m.digest, nil
}

// confirm replays a candidate witness pair concretely; nil means the
// traces did not diverge.
func confirm(prog *isa.Program, img image, pol policy, cfg Config, budget *int64, sa, sb []byte) (*Witness, error) {
	ta, _, err := concreteTrace(prog, img, pol, cfg, budget, sa)
	if err != nil {
		return nil, fmt.Errorf("symx: witness replay secret=%#x: %w", sa, err)
	}
	tb, _, err := concreteTrace(prog, img, pol, cfg, budget, sb)
	if err != nil {
		return nil, fmt.Errorf("symx: witness replay secret=%#x: %w", sb, err)
	}
	d := diffTraces(ta, tb)
	if d == "" {
		return nil, nil
	}
	return &Witness{SecretA: sa, SecretB: sb, Divergence: d}, nil
}

// diffTraces pinpoints the first differing event ("" when identical).
func diffTraces(a, b []cEvent) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: %s vs %s (lengths %d/%d)", i, a[i], b[i], len(a), len(b))
		}
	}
	if len(a) != len(b) {
		ev := func(t []cEvent) string {
			if n < len(t) {
				return t[n].String()
			}
			return "<end>"
		}
		return fmt.Sprintf("event %d: %s vs %s (lengths %d/%d)", n, ev(a), ev(b), len(a), len(b))
	}
	return ""
}

// enumerate decides the verdict by exhaustive concrete execution over the
// whole secret domain: exact, and immune to the path-explosion case that
// aborted the symbolic pass (a transient decision that itself depends on
// the secret).
func enumerate(prog *isa.Program, img image, pol policy, cfg Config, budget *int64) (Result, error) {
	traces, digests, err := replayDomain(prog, img, pol, cfg, budget)
	if _, ok := err.(errBudget); ok {
		return Result{Verdict: VerdictUnknown, Method: "enumeration", Reason: err.Error()}, nil
	}
	if err != nil {
		return Result{}, err
	}
	size := len(traces)
	for i := 1; i < size; i++ {
		if digests[i] != digests[0] {
			return Result{}, ErrArchLeak{What: "execution",
				SecretA: domainSecret(0, cfg.Secret.Size), SecretB: domainSecret(i, cfg.Secret.Size)}
		}
	}
	for i := 1; i < size; i++ {
		if d := diffTraces(traces[0], traces[i]); d != "" {
			return Result{Verdict: VerdictLeak, Method: "enumeration",
				Witness: &Witness{SecretA: domainSecret(0, cfg.Secret.Size),
					SecretB: domainSecret(i, cfg.Secret.Size), Divergence: d},
				Events: len(traces[0])}, nil
		}
	}
	return Result{Verdict: VerdictSecure, Method: "enumeration", Events: len(traces[0])}, nil
}

// replayDomain replays prog concretely at every point of the secret
// domain, in domain order, on one machine reset between points and on the
// one shared image: each replay matches concreteTrace's fresh machine. It
// returns errBudget bare when the work bound runs out.
func replayDomain(prog *isa.Program, img image, pol policy, cfg Config, budget *int64) ([][]cEvent, []uint64, error) {
	size := 1 << (8 * cfg.Secret.Size)
	traces := make([][]cEvent, size)
	digests := make([]uint64, size)
	m := newMachine(prog, img, pol, cfg, nil, budget)
	for i := 0; i < size; i++ {
		s := domainSecret(i, cfg.Secret.Size)
		m.reset(s)
		err := m.run()
		if _, ok := err.(errBudget); ok {
			return nil, nil, err
		}
		if err != nil {
			return nil, nil, fmt.Errorf("symx: %s secret=%#x: %w", prog.Name, s, err)
		}
		traces[i] = m.concreteEvents(s)
		digests[i] = m.digest
	}
	return traces, digests, nil
}
