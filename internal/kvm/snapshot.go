package kvm

// Checkpoint/restore of the full hypervisor state. The protocol mirrors
// the guest layer's: the scenario is rebuilt from its spec first (which
// recreates every object, closure, and pre-bound handler), the engine is
// reset and loaded, and then Host.Snap overwrites the rebuilt state with
// the snapshot's — re-arming every pending host-side event (segment
// completions, halt polls, wake delays, host ticks, guest/top-up timers)
// at its original (when, seq) coordinates.
//
// Closures are never serialized. The in-flight segment on a pCPU is not
// encoded either: it is, by construction, the current vCPU's issued guest
// segment (set by exec via gcpu.Next and restored by the guest kernel), so
// restore re-links the pointer. Pending segment-completion events are
// encoded as a handler-kind enum resolved back to the pCPU's pre-bound
// handlers.

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// Handler kinds for a pCPU's pending segment-completion event. The kind is
// derived from the in-flight segment at save time and selects which
// pre-bound handler the restored event invokes.
const (
	pevRun  = 0 // runDoneFn: a guest-run segment completes
	pevExit = 1 // exitDoneFn: an atomic exit's handling window elapses
	pevHlt  = 2 // hltDoneFn: the HLT exit's handling window elapses
	pevIrq  = 3 // irqDoneFn: an interrupt-induced exit's window elapses
)

// Snap codes the complete hypervisor state: every VM (counters, vCPUs,
// guest kernel), the scheduler queues, every pCPU's run state, and the
// tracer. The engine is coded separately (sim.ShardedEngine.Snap) and
// first, since restore needs the engine's clock before any event re-arms.
// Loading targets a host freshly rebuilt from the same scenario spec:
// identical topology, VM shapes, device attachments, and spawn order.
func (h *Host) Snap(c *snap.Codec) error {
	c.Section("kvm-host")
	c.Shape("pCPUs", len(h.pcpus))
	c.Shape("VMs", len(h.vms))
	iov, key := h.nextIOVector, h.nextSchedKey
	snap.AsI64(c, &iov)
	c.U64(&key)
	if c.Loading() && c.Err() == nil && (iov != h.nextIOVector || key != h.nextSchedKey) {
		c.Fail(fmt.Errorf("kvm: snapshot allocator state (vector %d, key %d) does not match rebuilt host (vector %d, key %d) — scenario shape mismatch",
			iov, key, h.nextIOVector, h.nextSchedKey))
	}
	if c.Err() != nil {
		return c.Err()
	}
	for _, vm := range h.vms {
		vm.snap(c)
	}
	var lookup func(key uint64) sched.Entity
	if c.Loading() {
		lookup = h.vcpuLookup()
	}
	h.sched.Snap(c, lookup)
	for _, p := range h.pcpus {
		p.snap(c, lookup)
	}
	h.tracer.Snap(c)
	if h.se.Quantum() > 0 {
		h.snapSharded(c)
	}
	return c.Err()
}

// vcpuLookup resolves scheduler keys to the host's vCPUs (nil when none
// carries the key).
func (h *Host) vcpuLookup() func(key uint64) sched.Entity {
	byKey := make(map[uint64]*VCPU)
	for _, vm := range h.vms {
		for _, v := range vm.vcpus {
			byKey[v.node.Key] = v
		}
	}
	return func(k uint64) sched.Entity {
		if v, ok := byKey[k]; ok {
			return v
		}
		return nil
	}
}

// snapSharded codes the lane-mode extras: per-lane trace rings, in-flight
// remote-IRQ deliveries, and IPI stream positions, re-arming every
// delivery and stream event at its original (when, seq) coordinates on
// load. The section only exists for lane-mode hosts (a positive quantum),
// so legacy checkpoint bytes are byte-for-byte unchanged.
func (h *Host) snapSharded(c *snap.Codec) {
	c.Section("kvm-sharded")
	laneTraced := h.laneTracers != nil
	c.Bool(&laneTraced)
	if c.Loading() && c.Err() == nil && laneTraced != (h.laneTracers != nil) {
		if laneTraced {
			c.Fail(fmt.Errorf("kvm: snapshot has per-lane tracers but the rebuilt host records none"))
		} else {
			c.Fail(fmt.Errorf("kvm: rebuilt host has per-lane tracers but the snapshot records none"))
		}
		return
	}
	for _, t := range h.laneTracers {
		t.Snap(c)
	}
	c.Shape("remote-IRQ lanes", len(h.inflight))
	for lane, list := range h.inflight {
		n := len(list)
		c.Len(&n)
		if c.Loading() {
			h.inflight[lane] = list[:0]
		}
		for i := 0; i < n && c.Err() == nil; i++ {
			var r *remoteIRQ
			if c.Loading() {
				r = &remoteIRQ{}
			} else {
				r = list[i]
			}
			snap.AsI64(c, &r.vm)
			snap.AsI64(c, &r.vcpu)
			snap.AsI64(c, &r.vec)
			at := sim.SnapArmed(c, r.ev)
			if c.Loading() && c.Err() == nil {
				c.Fail(h.armRemoteIRQRestored(r, at))
			}
		}
	}
	c.Shape("IPI streams", len(h.streams))
	for _, s := range h.streams {
		c.U64(&s.sent)
		at := sim.SnapCoords(c, s.ev)
		if c.Loading() {
			s.ev = s.src.engine.Rearm(c, at, "ipi-stream", s.fn)
		}
	}
}

func (vm *VM) snap(c *snap.Codec) {
	c.Section("vm:" + vm.name)
	snap.AsI64(c, &vm.declaredTickHz)
	c.Bool(&vm.started)
	c.Bool(&vm.workloadDone)
	snap.AsI64(c, &vm.doneAt)
	vm.counters.Snap(c)
	c.Shape("vCPUs", len(vm.vcpus))
	for _, v := range vm.vcpus {
		v.snap(c)
	}
	vm.kernel.Snap(c)
}

func (v *VCPU) snap(c *snap.Codec) {
	snap.AsU8(c, &v.state)
	if c.Loading() && c.Err() == nil && (v.state < VCPUStopped || v.state > VCPUHalted) {
		c.Fail(fmt.Errorf("kvm: snapshot vCPU %s/%d has invalid state %d", v.vm.name, v.id, v.state))
	}
	var pid int64
	if !c.Loading() {
		pid = int64(v.pcpu.id)
	}
	c.I64(&pid)
	if c.Loading() && c.Err() == nil {
		if pid < 0 || pid >= int64(len(v.vm.host.pcpus)) {
			c.Fail(fmt.Errorf("kvm: snapshot vCPU %s/%d homed on invalid pCPU %d", v.vm.name, v.id, pid))
		} else {
			v.pcpu = v.vm.host.pcpus[pid]
		}
	}
	v.node.Snap(c)
	snap.AsI64(c, &v.lastVirtualTick)
	snap.AsI64(c, &v.sliceStart)
	snap.Slice(c, &v.pending)
	for i := range v.pending {
		snap.AsI64(c, &v.pending[i].vec)
		snap.AsI64(c, &v.pending[i].since)
	}
	v.guestTimer.Snap(c)
	v.topUpTimer.Snap(c)
}

// segEventKind derives the pending completion event's handler kind from
// the in-flight segment: interruptGuest is the only path that leaves a
// pending event with no segment, and otherwise the segment's kind selects
// the handler exec installed.
func (p *PCPU) segEventKind() uint8 {
	if p.seg == nil {
		return pevIrq
	}
	switch p.seg.Kind {
	case guest.SegRun:
		return pevRun
	case guest.SegHLT:
		return pevHlt
	default:
		return pevExit
	}
}

// relinkSeg points the restored pCPU's in-flight segment at the current
// vCPU's issued guest segment, which the guest kernel restored.
func (p *PCPU) relinkSeg() error {
	if p.current == nil {
		return fmt.Errorf("kvm: snapshot pCPU %d has an in-flight segment but no current vCPU", p.id)
	}
	gv, ok := p.current.gcpu.(*guest.VCPU)
	if !ok {
		return fmt.Errorf("kvm: pCPU %d in-flight segment belongs to a non-guest vCPU; such hosts cannot be restored", p.id)
	}
	if p.seg = gv.Issued(); p.seg == nil {
		return fmt.Errorf("kvm: snapshot pCPU %d expects an issued segment on %s/%d, guest restored none",
			p.id, p.current.vm.name, p.current.id)
	}
	return nil
}

func (p *PCPU) snap(c *snap.Codec, lookup func(key uint64) sched.Entity) {
	c.Section(fmt.Sprintf("pcpu:%d", p.id))
	p.tick.Snap(c)
	running := p.current != nil
	c.Bool(&running)
	if c.Loading() {
		p.current = nil
	}
	if running {
		var key uint64
		if !c.Loading() {
			key = p.current.node.Key
		}
		c.U64(&key)
		if c.Loading() && c.Err() == nil {
			if p.current, _ = lookup(key).(*VCPU); p.current == nil {
				c.Fail(fmt.Errorf("kvm: snapshot pCPU %d runs unknown vCPU key %d", p.id, key))
			}
		}
	}
	segInFlight := p.seg != nil
	c.Bool(&segInFlight)
	if c.Loading() && c.Err() == nil {
		p.seg = nil
		if segInFlight {
			c.Fail(p.relinkSeg())
		}
	}

	// The pending completion event carries its handler as a kind.
	var at sim.Coords
	kind := uint8(pevRun)
	pending := p.segEvent.Pending()
	c.Bool(&pending)
	if pending {
		if !c.Loading() {
			kind = p.segEventKind()
		}
		c.U8(&kind)
		at = sim.SnapArmed(c, p.segEvent)
	}
	if c.Loading() {
		var label string
		var fn sim.Handler
		switch kind {
		case pevRun:
			label, fn = "pcpu-run", p.runDoneFn
		case pevExit:
			label, fn = "pcpu-exit", p.exitDoneFn
		case pevHlt:
			label, fn = "pcpu-hlt", p.hltDoneFn
		case pevIrq:
			label, fn = "pcpu-irq-exit", p.irqDoneFn
		default:
			c.Fail(fmt.Errorf("kvm: snapshot pCPU %d has unknown segment-event kind %d", p.id, kind))
		}
		p.segEvent = p.engine.Rearm(c, at, label, fn)
	}

	snap.AsI64(c, &p.segStart)
	c.Bool(&p.polling)
	snap.AsI64(c, &p.pollStart)
	at = sim.SnapCoords(c, p.pollEvent)
	if c.Loading() {
		p.pollEvent = p.engine.Rearm(c, at, "pcpu-poll", p.pollDoneFn)
	}
	c.Bool(&p.dispatchPending)
	at = sim.SnapCoords(c, p.wakeEvent)
	if c.Loading() {
		p.wakeEvent = p.engine.Rearm(c, at, "pcpu-wakeup", p.wakeupFn)
	}
	c.Bool(&p.irqExpire)
}
