package core

import "iolap/internal/delta"

// output is what an online operator emits for one mini-batch:
//
//   - news: rows whose multiplicity is now final (u# = F). They are emitted
//     exactly once and downstream operators may fold them permanently into
//     sketches and join states. Uncertain *attributes* inside them are
//     lineage references, so they never go stale.
//   - unc: the operator's current tuple-uncertain rows (u# = T), re-derived
//     every batch. Downstream operators recompute their contribution from
//     scratch each batch (the pending part of the delta update algorithm).
//
// The operator's logical output at batch i is (∪ all news so far) ∪ unc.
type output struct {
	news []delta.Row
	unc  []delta.Row
}

// operator is one online operator (Section 7's "online operator
// implementations"): it processes a mini-batch, maintains its Section 4.2
// state, and supports snapshot/restore for failure recovery.
type operator interface {
	step(bc *batchContext) (output, error)
	snapshot() interface{}
	restore(snap interface{})
	stateBytes() int
	kind() string
	// lastCounts reports the rows emitted by the most recent step:
	// (certain news, tuple-uncertain re-emissions).
	lastCounts() (news, unc int)
}

// emitCounts is embedded by operators to satisfy lastCounts.
type emitCounts struct {
	newsN, uncN int
}

func (c *emitCounts) record(out output)      { c.newsN, c.uncN = len(out.news), len(out.unc) }
func (c *emitCounts) lastCounts() (int, int) { return c.newsN, c.uncN }
