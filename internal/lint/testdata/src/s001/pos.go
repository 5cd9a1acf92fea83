package s001

import "paratick/internal/snap"

// Counter is under the coverage contract: Snap references value, so every
// other field must be encoded or carry a justified //snap:skip.
type Counter struct {
	value uint64
	// dropped is stateful but never encoded and carries no skip: one
	// finding.
	dropped uint64
	//snap:skip
	cache map[string]uint64 // reasonless skip excuses nothing: one finding
}

// Snap encodes only value.
func (c *Counter) Snap(cd *snap.Codec) {
	cd.U64(&c.value)
}

// Restored is under the contract through epoch. Its other fields are
// touched only by restore-only code, which encodes nothing: one finding
// each.
type Restored struct {
	epoch uint64
	// derived is assigned only in the body of a Loading branch.
	derived uint64
	// guarded is read only in a conjunct after the Loading call.
	guarded uint64
	// cached is assigned only in the else branch of !Loading.
	cached uint64
}

// Snap codes epoch; everything else runs only when loading.
func (r *Restored) Snap(c *snap.Codec) {
	c.U64(&r.epoch)
	if c.Loading() {
		r.derived = r.epoch * 2
	}
	if c.Loading() && r.guarded == 0 {
		r.epoch++
	}
	if !c.Loading() {
		r.epoch--
	} else {
		r.cached = 1
	}
}
