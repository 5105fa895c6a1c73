package taint

import "spt/internal/pipeline"

// The store-queue predicates SPT and STT share, each over the policy's own
// per-physical-register taint vector.

// storeQueue returns the core's store queue, oldest first, as its two ring
// segments.
func storeQueue(c *pipeline.Core) [2][]*pipeline.DynInst {
	older, younger := c.SQWindow()
	return [2][]*pipeline.DynInst{older, younger}
}

// violationSquashPublic reports whether squashing load ld for a
// memory-dependence violation, an implicit branch over the involved
// addresses (§6.7, footnote 4), reveals only public ones: the load's, the
// violating store's, and those of the known-address stores between them.
// The violating store is identified by value (the load's recorded seq and
// address operand): its ROB slot may already hold another instruction by
// the time the squash is permitted.
func violationSquashPublic(taint []bool, ld *pipeline.DynInst, sq [2][]*pipeline.DynInst) bool {
	if ld.AtVP {
		return true
	}
	if tainted(taint, ld.Src1) {
		return false
	}
	if !ld.HasViolStore {
		return true
	}
	if tainted(taint, ld.ViolSrc1) {
		return false
	}
	for _, seg := range sq {
		for _, other := range seg {
			if other.Seq > ld.ViolStoreSeq && other.Seq < ld.Seq && other.AddrKnown && tainted(taint, other.Src1) {
				return false
			}
		}
	}
	return true
}

// stlPublic evaluates the STLPublic(S, L) condition (§6.7): the load's
// address is public and every store from S to L (exclusive) has a public
// address, so the attacker already knows L reads its value from S. st is
// nil when the store has retired (a retired store's address leaked
// non-speculatively, so it needs no check of its own). An instruction past
// the visibility point leaks its address anyway.
func stlPublic(taint []bool, stSeq uint64, st, ld *pipeline.DynInst, sq [2][]*pipeline.DynInst) bool {
	if tainted(taint, ld.Src1) && !ld.AtVP {
		return false
	}
	if st != nil && tainted(taint, st.Src1) && !st.AtVP {
		return false
	}
	for _, seg := range sq {
		for _, other := range seg {
			if other.Seq <= stSeq || other.Seq >= ld.Seq || other.AtVP {
				continue
			}
			if !other.AddrKnown || tainted(taint, other.Src1) {
				return false
			}
		}
	}
	return true
}
