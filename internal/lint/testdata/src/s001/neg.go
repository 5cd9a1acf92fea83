package s001

import "paratick/internal/snap"

// Gauge is fully covered: high is encoded by the Snap method, low by a
// helper in the save graph, and scratch carries a justified skip. Clean.
type Gauge struct {
	high uint64
	low  uint64
	//snap:skip scratch buffer, rebuilt on demand after restore
	scratch []byte
}

// Snap encodes high and delegates the rest.
func (g *Gauge) Snap(c *snap.Codec) {
	c.U64(&g.high)
	snapLow(c, g)
}

// snapLow has a codec parameter, so it is part of the save graph.
func snapLow(c *snap.Codec, g *Gauge) {
	c.U64(&g.low)
}

// Rearmed codes its deadline on the save side of the branches; the handle
// rebuilt while loading carries a justified skip. Clean.
type Rearmed struct {
	deadline int64
	armed    bool
	//snap:skip handle re-armed from the deadline on load
	handle *int64
}

// Snap saves before the conjunct that makes a branch load-only, and in
// the body of !Loading.
func (r *Rearmed) Snap(c *snap.Codec) {
	if !c.Loading() && r.armed {
		c.I64(&r.deadline)
	}
	if r.armed && c.Loading() {
		r.handle = &r.deadline
	}
	if !c.Loading() {
		c.Bool(&r.armed)
	}
}

// Untracked is never touched by any save function: not under the
// contract, so its unencoded fields are legal.
type Untracked struct {
	hits   int
	misses int
}

// Touch keeps the fields referenced outside the save graph.
func (u *Untracked) Touch() { u.hits++; u.misses++ }
