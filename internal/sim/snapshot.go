package sim

// Checkpoint/restore support. The engine's pending events hold Go closures
// and therefore cannot be serialized; instead the snapshot layer saves the
// engine's *scalar* state here (clock, sequence counter, RNG stream, stop
// flags) and each component that owns events codes their coordinates with
// SnapCoords and re-arms them after restore with Rearm (ScheduleRestored),
// preserving the original (when, seq) dispatch order. Pools (the node free
// list, bucket/heap/batch capacities) and generation stamps are capacity,
// not state: they are deliberately outside the snapshot and outside
// DigestState.

import (
	"fmt"
	"sort"

	"paratick/internal/snap"
)

// Snap codes the engine's scalar state. Pending events are not included —
// their owners re-arm them on restore (see SnapCoords and Rearm). Loading
// demands an engine that holds no pending events (freshly constructed or
// Reset); the wheel window is re-derived from the restored clock.
func (e *Engine) Snap(c *snap.Codec) error {
	if c.Loading() && e.count != 0 {
		c.Fail(fmt.Errorf("sim: snapshot loaded into an engine with %d pending events (Reset it first)", e.count))
		return c.Err()
	}
	c.Section("engine")
	shift := uint64(e.shift)
	c.U64(&shift)
	if c.Loading() && c.Err() == nil && shift != uint64(e.shift) {
		c.Fail(fmt.Errorf("sim: snapshot bucket shift %d does not match engine shift %d", shift, e.shift))
		return c.Err()
	}
	snap.AsI64(c, &e.now)
	c.U64(&e.seq)
	c.U64(&e.fired)
	c.Bool(&e.stopReq)
	c.Bool(&e.stopped)
	s := e.rand.State()
	for i := range s {
		c.U64(&s[i])
	}
	if c.Loading() {
		e.wheelBase = int64(e.now >> e.shift)
		e.wheelEnd = wheelEndFor(e.wheelBase, e.shift)
		e.rand.SetState(s)
	}
	return c.Err()
}

// Coords are an event's (when, seq) dispatch coordinates as a snapshot
// carries them; Pending is false for an event that was not queued.
type Coords struct {
	When    Time
	Seq     uint64
	Pending bool
}

// SnapCoords codes whether ev is pending and, when it is, its (when, seq)
// coordinates. Saving reads them from ev; loading returns the snapshot's,
// which the owner hands to Rearm together with the event's pre-bound
// handler.
func SnapCoords(c *snap.Codec, ev Event) Coords {
	pending := ev.Pending()
	c.Bool(&pending)
	if !pending {
		return Coords{}
	}
	return SnapArmed(c, ev)
}

// SnapArmed codes the (when, seq) coordinates of an event that is pending
// by construction, so no pending flag precedes them.
func SnapArmed(c *snap.Codec, ev Event) Coords {
	at := Coords{Pending: true}
	if !c.Loading() {
		at.When = ev.When()
		at.Seq, _ = ev.Seq()
	}
	snap.AsI64(c, &at.When)
	c.U64(&at.Seq)
	return at
}

// Rearm schedules fn at coordinates a snapshot carried (ScheduleRestored)
// and returns the handle; a not-pending event yields the zero Event.
// Invalid coordinates fail c rather than panic, and nothing is scheduled
// once c has failed.
func (e *Engine) Rearm(c *snap.Codec, at Coords, label string, fn Handler) Event {
	if !at.Pending || c.Err() != nil {
		return Event{}
	}
	ev, err := e.ScheduleRestored(at.When, at.Seq, label, fn)
	c.Fail(err)
	return ev
}

// ScheduleRestored re-arms an event carried over from a snapshot at its
// original (when, seq) coordinates, so the restored engine dispatches in
// exactly the pre-snapshot order. Unlike At it does not consume a new
// sequence number. A snapshot can only hold future events numbered before
// its sequence counter, so when before now or seq at or past the counter
// is an error (a corrupted or mismatched snapshot); a nil handler is a
// programming error and panics. The success path does not allocate.
func (e *Engine) ScheduleRestored(when Time, seq uint64, label string, fn Handler) (Event, error) {
	if fn == nil {
		panic("sim: nil event handler")
	}
	if when < e.now {
		return Event{}, fmt.Errorf("sim: restoring %q at %v before now %v", label, when, e.now)
	}
	if seq >= e.seq {
		return Event{}, fmt.Errorf("sim: restored event %q seq %d not below engine seq %d", label, seq, e.seq)
	}
	nd := e.acquire()
	nd.when = when
	nd.seq = seq
	nd.fn = fn
	nd.label = label
	e.count++
	ab := int64(when >> e.shift)
	if e.batchBkt >= 0 && ab < e.batchBkt {
		e.spillBatch()
	}
	switch {
	case ab == e.batchBkt:
		e.batchInsert(nd)
	case when < e.wheelEnd:
		e.wheelAdd(nd)
	default:
		e.push(nd)
	}
	return Event{n: nd, gen: nd.gen}, nil
}

// Seq returns the event's dispatch sequence number, the tie-break half of
// its (when, seq) coordinates. ok is false once the handle is dead.
func (ev Event) Seq() (seq uint64, ok bool) {
	if ev.live() {
		return ev.n.seq, true
	}
	return 0, false
}

// ForEachPending visits every queued event in unspecified order. It exists
// for state digests and diagnostics; fn must not schedule or cancel.
func (e *Engine) ForEachPending(fn func(when Time, seq uint64, label string)) {
	for s := range e.buckets {
		for _, nd := range e.buckets[s] {
			fn(nd.when, nd.seq, nd.label)
		}
	}
	for i := e.batchPos; i < len(e.batch); i++ {
		if nd := e.batch[i].nd; nd != nil {
			fn(nd.when, nd.seq, nd.label)
		}
	}
	for _, nd := range e.heap {
		fn(nd.when, nd.seq, nd.label)
	}
}

// DigestState returns a canonical hash of the engine's observable state:
// scalars, RNG stream, and every pending event's (when, seq, label) in
// dispatch order. Two engines with equal digests behave identically from
// here on (given handlers are re-bound equivalently). Pool contents,
// retained capacities, and node generation stamps are excluded by design —
// they affect performance, never behaviour. Digesting allocates; it is a
// test and fuzzing facility, not a hot-path one.
func (e *Engine) DigestState() snap.Digest {
	c := snap.NewWriter()
	e.Snap(c)
	count, observed := uint64(e.count), e.obs != nil
	c.U64(&count)
	c.Bool(&observed)
	type pending struct {
		when  Time
		seq   uint64
		label string
	}
	evs := make([]pending, 0, e.count)
	e.ForEachPending(func(when Time, seq uint64, label string) {
		evs = append(evs, pending{when, seq, label})
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	for i := range evs {
		snap.AsI64(c, &evs[i].when)
		c.U64(&evs[i].seq)
		c.String(&evs[i].label)
	}
	return snap.HashBytes(c.Bytes())
}
