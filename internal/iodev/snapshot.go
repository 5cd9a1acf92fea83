package iodev

// Checkpoint/restore of device state. Requests reference guest tasks
// through the opaque Cookie, so Snap takes a translation (Cookies): the
// guest layer maps cookies to stable task IDs and back. In-service
// requests carry their completion event's (when, seq) coordinates and are
// re-armed on load, so a restored device completes I/O at exactly the
// pre-snapshot instants.

import (
	"fmt"
	"sort"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

// SetProfile swaps the device's latency profile. Only future submissions
// are affected; requests already in service keep their original completion
// schedule. The experiment layer uses this to vary device latency across
// forked snapshot arms without disturbing shared warmup state.
func (d *Device) SetProfile(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.profile = p
	return nil
}

// Cookies translates request cookies to stable snapshot ids and back: the
// guest maps the *Task blocked on an I/O to its task id. Saving calls
// CookieID for every non-nil Cookie (the id must be non-negative); loading
// calls Cookie for every id it reads.
type Cookies interface {
	CookieID(cookie any) int64
	Cookie(id int64) any
}

// Snap codes a request. Its completion event is not part of it: a device
// codes that alongside each in-service request, and a request held outside
// any device (the guest's queued io-kick segments carry such requests) has
// none.
func (r *Request) Snap(c *snap.Codec, cookies Cookies) error {
	c.Bool(&r.Write)
	c.Bool(&r.Sequential)
	snap.AsI64(c, &r.Bytes)
	snap.AsI64(c, &r.VCPU)
	id := int64(-1)
	if !c.Loading() && r.Cookie != nil {
		id = cookies.CookieID(r.Cookie)
	}
	c.I64(&id)
	if c.Loading() {
		r.Cookie = nil
		if id >= 0 {
			r.Cookie = cookies.Cookie(id)
		}
	}
	snap.AsI64(c, &r.Submitted)
	snap.AsI64(c, &r.Completed)
	c.Bool(&r.done)
	return c.Err()
}

// snapRequests codes a request list; loading fills it with new requests.
func snapRequests(c *snap.Codec, rs *[]*Request, cookies Cookies) {
	snap.Slice(c, rs)
	for i, r := range *rs {
		if c.Loading() {
			r = &Request{}
			(*rs)[i] = r
		}
		r.Snap(c, cookies)
	}
}

// Snap codes the device's full state. Loading targets a freshly
// constructed device (same name, vector, and engine wiring) and re-arms
// every in-service completion and coalescing flush at its original
// coordinates.
func (d *Device) Snap(c *snap.Codec, cookies Cookies) error {
	c.Section("iodev:" + d.name)
	if c.Loading() && (d.inflight != 0 || len(d.waiting) != 0 || len(d.completed) != 0) {
		c.Fail(fmt.Errorf("iodev: %s: snapshot loaded into a device with active requests", d.name))
		return c.Err()
	}
	s := d.rng.State()
	for i := range s {
		c.U64(&s[i])
	}
	if c.Loading() {
		d.rng.SetState(s)
	}
	c.U64(&d.ops)
	c.U64(&d.bytesRead)
	c.U64(&d.bytesWritten)
	c.U64(&d.coalescedIRQs)

	snap.Slice(c, &d.running)
	for i, req := range d.running {
		if c.Loading() {
			req = &Request{}
			d.running[i] = req
		}
		req.Snap(c, cookies)
		at := sim.SnapArmed(c, req.ev)
		if c.Loading() && c.Err() == nil {
			d.inflight++
			req.ev = d.engine.Rearm(c, at, d.ioLabel, d.completion(req))
		}
	}
	snapRequests(c, &d.waiting, cookies)
	snapRequests(c, &d.completed, cookies)

	// Coalescing state is keyed by vCPU in a map; collect and sort the keys
	// before encoding (paratick-vet D003). Exhausted entries (no pending
	// completions, no flush scheduled) are semantically absent — skip them
	// so equal states encode to equal bytes.
	var keys []int
	if !c.Loading() {
		keys = make([]int, 0, len(d.coalesce))
		for vcpu, st := range d.coalesce {
			if st.pending > 0 || st.flush.Pending() {
				keys = append(keys, vcpu)
			}
		}
		sort.Ints(keys)
	}
	n := len(keys)
	c.Len(&n)
	for i := 0; i < n && c.Err() == nil; i++ {
		var vcpu int
		var st *coalesceState
		if c.Loading() {
			st = &coalesceState{}
		} else {
			vcpu = keys[i]
			st = d.coalesce[vcpu]
		}
		snap.AsI64(c, &vcpu)
		snap.AsI64(c, &st.pending)
		at := sim.SnapCoords(c, st.flush)
		if c.Loading() && c.Err() == nil {
			d.coalesce[vcpu] = st
			st.flush = d.engine.Rearm(c, at, "io-coalesce:"+d.name, d.flusher(vcpu, st))
		}
	}
	return c.Err()
}
