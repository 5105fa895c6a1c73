// Package taint implements the paper's protection schemes as pipeline
// policies: SPT (Speculative Privacy Tracking, §5–§7) with its forward and
// backward untaint algebra, bounded untaint broadcast, store-to-load
// forwarding propagation gated on STLPublic, and shadow L1 / shadow memory
// taint tracking; STT (Speculative Taint Tracking, MICRO'19) as the
// narrower-scope comparison point; and the SecureBaseline (SPT machinery
// with untainting disabled: transmitters and branch resolutions simply wait
// for the visibility point).
package taint

import "fmt"

// EventKind classifies register untaint events (paper Figure 8).
type EventKind uint8

const (
	// EvVPDeclass: a transmitter/branch reached the visibility point and
	// its leaked operands were declassified (§6.6).
	EvVPDeclass EventKind = iota
	// EvLoadImm: an output determined only by ROB contents (immediate
	// moves, link addresses) was public at rename (§6.5).
	EvLoadImm
	// EvForward: all inputs untainted ⇒ output untainted (§6.6).
	EvForward
	// EvBackward: output + all-but-one inputs untainted ⇒ last input
	// untainted (§6.6).
	EvBackward
	// EvSTLForward: store data untaint propagated to a forwarded load's
	// output once STLPublic held (§6.7).
	EvSTLForward
	// EvSTLBackward: forwarded load output untaint propagated back to the
	// store's data operand once STLPublic held (§6.7).
	EvSTLBackward
	// EvShadowLoad: a load read fully-untainted bytes from the shadow
	// L1/memory, untainting its output (§6.8).
	EvShadowLoad

	NumEvents
)

var eventNames = [...]string{
	EvVPDeclass:   "vp-declassify",
	EvLoadImm:     "load-imm",
	EvForward:     "forward",
	EvBackward:    "backward",
	EvSTLForward:  "stl-forward",
	EvSTLBackward: "stl-backward",
	EvShadowLoad:  "shadow-load",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Stats aggregates taint-engine counters.
type Stats struct {
	// Events counts register untaint events by kind.
	Events [NumEvents]uint64
	// UntaintHist[i] counts untainting cycles in which i+1 registers were
	// untainted; the last bucket is "10 or more" (paper Figure 9).
	UntaintHist [10]uint64
	// UntaintingCycles counts cycles with at least one untaint event.
	UntaintingCycles uint64
	// BroadcastDeferred counts untaint-ready registers that had to wait
	// for a later cycle because the broadcast width was exhausted.
	BroadcastDeferred uint64
	// MemUntaints counts shadow L1/memory byte-range untaint operations.
	MemUntaints uint64
	// TaintedAtRename counts instructions whose output was tainted at
	// rename (loads, and ops with at least one tainted input).
	TaintedAtRename uint64
	// STLPublicHits counts store-to-load forwards that could happen openly
	// because the STLPublic condition (§6.7) already held.
	STLPublicHits uint64
}
