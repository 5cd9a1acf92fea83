package guest

// Checkpoint/restore of the guest kernel: tasks, vCPUs, synchronization
// objects, timer wheels, and attached devices. Closures are never
// serialized — every callback the guest schedules is rebuilt from the
// identity of the objects it was bound over (task ids, lock registry
// ordinals), which is why Segment carries owner fields and the kernel
// registers sync objects in creation order. The segment pool is drained,
// not saved: pooled segments are dead state.
//
// Loading targets a kernel freshly rebuilt from the same scenario
// specification: identical vCPU count, task spawn order, sync-object
// creation order, and device attachment order. Everything mutable is then
// overwritten from the snapshot; pending timers and in-service I/O re-arm
// their engine events at the original (when, seq) coordinates.

import (
	"fmt"
	"sort"

	"paratick/internal/core"
	"paratick/internal/iodev"
	"paratick/internal/snap"
)

// --- timer wheel -------------------------------------------------------------

// restoreTimer re-queues t with the placement identity the snapshot
// restored into it: the fire jiffy and tie-break sequence assigned at the
// original Add. The wheel's clock must already be restored; pending timers
// always satisfy fireJiff > curJiff.
func (w *TimerWheel) restoreTimer(t *SoftTimer) error {
	if t.Pending() {
		return fmt.Errorf("guest: restore of an already-pending timer")
	}
	if t.fireJiff <= w.curJiff {
		return fmt.Errorf("guest: restored timer fires at jiffy %d, wheel already at %d", t.fireJiff, w.curJiff)
	}
	w.insert(t)
	if w.nextOK && t.fireJiff < w.nextJiff {
		w.nextJiff = t.fireJiff
	}
	return nil
}

// snapClock codes the wheel's scalar state. Bucket contents are not
// enumerated: every timer living in a scenario wheel is a task sleep timer,
// coded (with its placement) by the task that owns it. Loading needs an
// empty wheel.
func (w *TimerWheel) snapClock(c *snap.Codec) {
	jiffy := w.jiffy
	snap.AsI64(c, &jiffy)
	if c.Loading() && c.Err() == nil {
		if jiffy != w.jiffy {
			c.Fail(fmt.Errorf("guest: snapshot wheel jiffy %v does not match configured %v", jiffy, w.jiffy))
		} else if w.count != 0 {
			c.Fail(fmt.Errorf("guest: wheel clock loaded into a wheel holding %d timers", w.count))
		}
	}
	c.I64(&w.curJiff)
	c.U64(&w.seq)
	if c.Loading() {
		w.nextOK = false
	}
}

// forEachPending visits every queued timer (buckets and overflow) in an
// unspecified order.
func (w *TimerWheel) forEachPending(fn func(t *SoftTimer)) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for slot := 0; slot < wheelSlots; slot++ {
			for _, t := range w.buckets[lvl][slot] {
				fn(t)
			}
		}
	}
	for _, t := range w.overflow {
		fn(t)
	}
}

// DigestState hashes the wheel's observable state: clock, counters,
// occupancy bitmaps, and every pending timer in Add order. Cached
// next-expiry values and retained bucket capacity are excluded — both are
// derived or deliberately recycled state. A freshly constructed wheel and
// a used-then-Reset wheel must digest identically.
func (w *TimerWheel) DigestState() snap.Digest {
	c := snap.NewWriter()
	c.Section("wheel-digest")
	count := int64(w.count)
	snap.AsI64(c, &w.jiffy)
	c.I64(&w.maxJiff)
	c.I64(&w.curJiff)
	c.I64(&count)
	c.U64(&w.seq)
	for lvl := range w.occ {
		c.U64(&w.occ[lvl])
	}
	var pending []*SoftTimer
	w.forEachPending(func(t *SoftTimer) { pending = append(pending, t) })
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	n := len(pending)
	c.Len(&n)
	for _, t := range pending {
		snap.AsI64(c, &t.Deadline)
		c.I64(&t.fireJiff)
		c.U64(&t.seq)
	}
	return snap.HashBytes(c.Bytes())
}

// --- segments ----------------------------------------------------------------

// OnDone closures are encoded symbolically by what they were bound over.
const (
	segDoneNil      = 0 // no completion callback
	segDoneTaskRun  = 1 // ownerTask's run-completion callback
	segDoneLockSpin = 2 // post-spin lock retry probe (ownerLock, ownerTask)
)

func (k *Kernel) deviceIndex(d *iodev.Device) int {
	for i, dev := range k.devices {
		if dev == d {
			return i
		}
	}
	return -1
}

// snapSegment codes a segment owned by v. Its completion closure travels
// as what it was bound over (segDone*); loading rebinds it.
func (k *Kernel) snapSegment(c *snap.Codec, v *VCPU, s *Segment) {
	snap.AsU8(c, &s.Kind)
	c.String(&s.Label)
	snap.AsI64(c, &s.Duration)
	c.Bool(&s.Kernel)
	c.Bool(&s.Spin)
	snap.AsI64(c, &s.Deadline)
	hasReq := s.Req != nil
	c.Bool(&hasReq)
	if hasReq {
		if c.Loading() {
			s.Req = &iodev.Request{}
		}
		s.Req.Snap(c, taskCookies{k})
	}
	dev := int64(-1)
	if !c.Loading() && s.Dev != nil {
		if dev = int64(k.deviceIndex(s.Dev)); dev < 0 {
			c.Fail(fmt.Errorf("guest: segment %v references an unattached device", s))
		}
	}
	c.I64(&dev)
	if c.Loading() && c.Err() == nil && dev >= 0 {
		if dev >= int64(len(k.devices)) {
			c.Fail(fmt.Errorf("guest: snapshot references device %d of %d", dev, len(k.devices)))
		} else {
			s.Dev = k.devices[dev]
		}
	}
	snap.AsI64(c, &s.Target)
	snap.AsI64(c, &s.HKind)
	c.I64(&s.HArg)

	done := uint8(segDoneNil)
	if !c.Loading() {
		switch {
		case s.OnDone == nil:
		case s.ownerLock != nil && s.ownerTask != nil:
			done = segDoneLockSpin
		case s.ownerTask != nil:
			done = segDoneTaskRun
		default:
			c.Fail(fmt.Errorf("guest: segment %v has an OnDone closure with no recorded owner", s))
		}
	}
	c.U8(&done)
	switch done {
	case segDoneNil:
	case segDoneTaskRun:
		k.snapTask(c, &s.ownerTask, false)
		if c.Loading() && c.Err() == nil {
			s.OnDone = s.ownerTask.runDoneFn
		}
	case segDoneLockSpin:
		k.snapLock(c, &s.ownerLock)
		k.snapTask(c, &s.ownerTask, false)
		if c.Loading() && c.Err() == nil {
			s.OnDone = v.lockSpinRetry(s.ownerLock, s.ownerTask)
		}
	default:
		c.Fail(fmt.Errorf("guest: unknown segment completion kind %d", done))
	}
	if c.Loading() && c.Err() == nil {
		c.Fail(k.checkRestored(s))
	}
}

// checkRestored rejects a restored segment the hypervisor could not
// execute. A live kernel never issues one, so it means a corrupted
// snapshot — an error here, where running it would panic.
func (k *Kernel) checkRestored(s *Segment) error {
	switch s.Kind {
	case SegRun, SegMSRWrite, SegHLT, SegHypercall:
		return nil
	case SegIOSubmit:
		if s.Dev == nil || s.Req == nil || s.Req.Bytes <= 0 || s.Req.VCPU < 0 || s.Req.VCPU >= len(k.vcpus) {
			return fmt.Errorf("guest: snapshot holds an I/O submission without a valid device request")
		}
		return nil
	case SegIPI:
		if s.Target < 0 || s.Target >= len(k.vcpus) {
			return fmt.Errorf("guest: snapshot IPI targets vCPU %d of %d", s.Target, len(k.vcpus))
		}
		return nil
	}
	return fmt.Errorf("guest: snapshot holds unknown segment kind %v", s.Kind)
}

func (k *Kernel) taskByID(id int64) (*Task, error) {
	if id < 0 || int(id) >= len(k.tasks) {
		return nil, fmt.Errorf("guest: snapshot references task %d of %d", id, len(k.tasks))
	}
	return k.tasks[id], nil
}

// snapTask codes a task reference as the task's id, -1 for nil. Loading
// resolves the id; a negative one restores nil only where orNil allows it.
func (k *Kernel) snapTask(c *snap.Codec, t **Task, orNil bool) {
	id := int64(-1)
	if *t != nil {
		id = int64((*t).ID)
	}
	c.I64(&id)
	if !c.Loading() {
		return
	}
	*t = nil
	if c.Err() != nil || (orNil && id < 0) {
		return
	}
	task, err := k.taskByID(id)
	c.Fail(err)
	*t = task
}

// snapTasks codes a task list by id.
func (k *Kernel) snapTasks(c *snap.Codec, ts *[]*Task) {
	snap.Slice(c, ts)
	for i := range *ts {
		k.snapTask(c, &(*ts)[i], false)
	}
}

// snapLock codes a lock reference by its registry ordinal.
func (k *Kernel) snapLock(c *snap.Codec, l **Lock) {
	id := int64(-1)
	if *l != nil {
		id = int64((*l).id)
	}
	c.I64(&id)
	if !c.Loading() || c.Err() != nil {
		return
	}
	if id < 0 || id >= int64(len(k.locks)) {
		c.Fail(fmt.Errorf("guest: snapshot references lock %d of %d", id, len(k.locks)))
		return
	}
	*l = k.locks[id]
}

// taskCookies translates a request Cookie (the *Task blocked on the I/O)
// into its stable task id and back.
type taskCookies struct{ k *Kernel }

// CookieID implements iodev.Cookies.
func (tc taskCookies) CookieID(c any) int64 {
	if t, ok := c.(*Task); ok && t != nil {
		return int64(t.ID)
	}
	return -1
}

// Cookie implements iodev.Cookies.
func (tc taskCookies) Cookie(id int64) any {
	if id < 0 || int(id) >= len(tc.k.tasks) {
		return nil
	}
	return tc.k.tasks[id]
}

// --- kernel ------------------------------------------------------------------

// Issued returns the segment most recently handed to the hypervisor (nil
// when none is outstanding). The hypervisor uses it after a restore to
// re-link its in-flight segment pointer.
func (v *VCPU) Issued() *Segment { return v.issued }

// Snap codes the kernel's complete mutable state. The shared metrics
// counters are excluded (the hypervisor and guest write into one Counters
// object; its owner codes it once). Every spawned program must implement
// ProgramState. Loading targets a kernel freshly rebuilt from the same
// scenario specification and re-arms pending soft timers and device events
// at their original engine coordinates, so the engine's clock must already
// be restored (sim.Engine.Snap).
func (k *Kernel) Snap(c *snap.Codec) error {
	c.Section("guest")
	s := k.rng.State()
	for i := range s {
		c.U64(&s[i])
	}
	if c.Loading() && c.Err() == nil {
		k.rng.SetState(s)
	}
	c.Bool(&k.started)

	c.Shape("locks", len(k.locks))
	for _, l := range k.locks {
		k.snapTask(c, &l.holder, true)
		k.snapTasks(c, &l.waiters)
		c.U64(&l.acquisitions)
		c.U64(&l.contended)
	}
	c.Shape("barriers", len(k.barriers))
	for _, b := range k.barriers {
		snap.AsI64(c, &b.parties) // mutable: detach shrinks the party
		k.snapTasks(c, &b.waiting)
		c.U64(&b.cycles)
	}
	c.Shape("conds", len(k.conds))
	for _, cv := range k.conds {
		lockID := int64(cv.lock.id)
		c.I64(&lockID)
		if c.Loading() && c.Err() == nil && lockID != int64(cv.lock.id) {
			c.Fail(fmt.Errorf("guest: cond %q paired with lock %d in snapshot, %d in kernel", cv.name, lockID, cv.lock.id))
		}
		k.snapTasks(c, &cv.waiters)
		c.U64(&cv.waits)
		c.U64(&cv.signals)
	}

	c.Shape("vCPUs", len(k.vcpus))
	for _, v := range k.vcpus {
		ps := core.PolicyState(v.policy)
		c.U64(&ps)
		if c.Loading() && c.Err() == nil {
			c.Fail(core.SetPolicyState(v.policy, ps))
		}
		v.wheel.snapClock(c)
		c.Bool(&v.idle)
		c.Bool(&v.needResched)
		c.Bool(&v.booted)
		c.Bool(&v.timerArmed)
		snap.AsI64(c, &v.timerDeadline)
		c.Bool(&v.rcuPending)
		snap.AsI64(c, &v.rcuDeadline)
		snap.AsI64(c, &v.switchCount)
		snap.AsI64(c, &v.lastTickAt)
		k.snapTask(c, &v.current, true)
		k.snapTasks(c, &v.runq)
		// Loading replaces the rebuilt segments with pooled ones.
		if c.Loading() {
			for _, old := range v.queue {
				k.releaseSeg(old)
			}
		}
		snap.Slice(c, &v.queue)
		for i := range v.queue {
			if c.Loading() {
				v.queue[i] = k.acquireSeg()
			}
			k.snapSegment(c, v, v.queue[i])
		}
		issued := v.issued != nil
		c.Bool(&issued)
		if c.Loading() && v.issued != nil {
			k.releaseSeg(v.issued)
			v.issued = nil
		}
		if issued {
			if c.Loading() {
				v.issued = k.acquireSeg()
			}
			k.snapSegment(c, v, v.issued)
		}
	}

	c.Shape("tasks", len(k.tasks))
	if c.Loading() {
		k.liveTasks = 0
	}
	for _, t := range k.tasks {
		snap.AsU8(c, &t.state)
		rs := t.rng.State()
		for i := range rs {
			c.U64(&rs[i])
		}
		if c.Loading() && c.Err() == nil {
			t.rng.SetState(rs)
		}
		snap.AsI64(c, &t.remaining)
		c.String(&t.blockReason)
		st := &t.sleepTimer
		if c.Loading() {
			*st = SoftTimer{}
		}
		pending := st.Pending()
		c.Bool(&pending)
		if pending {
			snap.AsI64(c, &st.Deadline)
			c.I64(&st.fireJiff)
			c.U64(&st.seq)
			if c.Loading() && c.Err() == nil {
				st.Fire = t.sleepFireFn
				c.Fail(t.vcpu.wheel.restoreTimer(st))
			}
		}
		snap.AsI64(c, &t.startedAt)
		snap.AsI64(c, &t.finishedAt)
		ps, ok := t.prog.(ProgramState)
		if !ok {
			c.Fail(fmt.Errorf("guest: task %q runs a %T, which does not implement ProgramState; snapshot requires struct programs", t.Name, t.prog))
			return c.Err()
		}
		ps.SnapState(c)
		if c.Loading() && t.state != TaskDone {
			k.liveTasks++
		}
	}

	c.Shape("devices", len(k.devices))
	for _, d := range k.devices {
		d.Snap(c, taskCookies{k})
	}
	return c.Err()
}
