package metrics

// Checkpoint encoding of the measurement plane. Counters and Histograms
// are plain value types, so Snap is a straight field walk — but they
// go through snap rather than raw memory copies so the on-disk format
// stays stable even if Go reorders struct layout or fields grow.

import "paratick/internal/snap"

// histWireBuckets is the on-disk bucket count. The wire format predates the
// HistBuckets shrink and keeps 64 slots so committed checkpoints stay
// byte-identical: the in-memory histogram covers every reachable duration
// (see HistBuckets), so the padding slots are always zero.
const histWireBuckets = 64

// Snap codes the histogram. Padding slots are zero for any checkpoint this
// build wrote; a checkpoint from a wider-histogram build folds its tail
// into the absorbing top bucket rather than silently dropping counts.
func (h *Histogram) Snap(c *snap.Codec) error {
	for i := range h.Buckets {
		c.U64(&h.Buckets[i])
	}
	for i := len(h.Buckets); i < histWireBuckets; i++ {
		var pad uint64
		c.U64(&pad)
		if c.Loading() {
			h.Buckets[HistBuckets-1] += pad
		}
	}
	c.U64(&h.N)
	snap.AsI64(c, &h.Sum)
	snap.AsI64(c, &h.MaxSeen)
	return c.Err()
}

// Snap codes the full counter set.
func (c *Counters) Snap(cd *snap.Codec) error {
	cd.Section("counters")
	for i := range c.Exits {
		cd.U64(&c.Exits[i])
	}
	cd.U64(&c.Injections)
	cd.U64(&c.VirtualTicks)
	cd.U64(&c.GuestTicks)
	cd.U64(&c.TimerArms)
	cd.U64(&c.IdleEnters)
	cd.U64(&c.IdleExits)
	cd.U64(&c.Wakeups)
	cd.U64(&c.ContextSw)
	snap.AsI64(cd, &c.HostOverhead)
	snap.AsI64(cd, &c.GuestUseful)
	snap.AsI64(cd, &c.GuestKernel)
	cd.U64(&c.IOReads)
	cd.U64(&c.IOWrites)
	cd.U64(&c.IOBytesRead)
	cd.U64(&c.IOBytesWritten)
	for i := range c.ExitCost {
		c.ExitCost[i].Snap(cd)
	}
	for i := range c.InjectLatency {
		c.InjectLatency[i].Snap(cd)
	}
	c.TickInterval.Snap(cd)
	return cd.Err()
}
