package trace

// Checkpoint encoding of the trace buffer. The ring is saved in
// chronological order (so the internal next/full cursor state is
// normalized away) and the aggregate count map is encoded under sorted
// keys — equal trace states always produce equal bytes.

import (
	"fmt"
	"sort"

	"paratick/internal/snap"
)

// Snap codes the buffer. A nil buffer codes an explicit absent marker, so
// presence round-trips; loading a present buffer needs one of the same
// capacity attached.
func (b *Buffer) Snap(c *snap.Codec) error {
	c.Section("trace")
	present := b != nil
	c.Bool(&present)
	if !present {
		return c.Err()
	}
	if b == nil {
		c.Fail(fmt.Errorf("trace: snapshot carries a trace buffer but none is attached"))
		return c.Err()
	}
	capacity := uint64(b.cap)
	c.U64(&capacity)
	if c.Loading() && c.Err() == nil && capacity != uint64(b.cap) {
		c.Fail(fmt.Errorf("trace: snapshot buffer capacity %d does not match configured %d", capacity, b.cap))
	}
	c.U64(&b.total)
	snap.AsI64(c, &b.first)
	snap.AsI64(c, &b.last)

	// The ring is coded in chronological order, which normalizes the
	// next/full cursors away: a loaded ring at capacity resumes as full with
	// the write cursor back at the start, keeping Events() ordering
	// identical.
	var evs []Event
	if c.Loading() {
		evs = b.events // decoded in place, reusing the ring's storage
	} else {
		evs = b.Events()
	}
	snap.Slice(c, &evs)
	if len(evs) > b.cap {
		c.Fail(fmt.Errorf("trace: snapshot holds %d events, buffer capacity is %d", len(evs), b.cap))
		return c.Err()
	}
	for i := range evs {
		e := &evs[i]
		snap.AsI64(c, &e.When)
		snap.AsI64(c, &e.Dur)
		snap.AsI64(c, &e.Kind)
		snap.AsI64(c, &e.PCPU)
		c.String(&e.VM)
		snap.AsI64(c, &e.VCPU)
		c.String(&e.Detail)
	}
	if c.Loading() {
		b.events, b.next, b.full = evs, 0, len(evs) == b.cap
	}

	// The aggregate map is coded under sorted keys (paratick-vet D003).
	var keys []string
	if !c.Loading() {
		keys = make([]string, 0, len(b.counts))
		for k := range b.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	n := len(keys)
	c.Len(&n)
	if c.Loading() {
		clear(b.counts)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k string
		var v uint64
		if !c.Loading() {
			k, v = keys[i], b.counts[keys[i]]
		}
		c.String(&k)
		c.U64(&v)
		if c.Loading() {
			b.counts[k] = v
		}
	}
	return c.Err()
}
