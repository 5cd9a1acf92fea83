package sched

// Checkpoint/restore of scheduler queues. Entities are encoded by their
// stable Node.Key (never by pointer), and queue contents are saved in
// logical order so a restored scheduler makes byte-identical decisions.
// Per-entity vruntime travels with the entity itself (Node.Snap), since
// the entity's owner codes it alongside the rest of its state.

import (
	"fmt"

	"paratick/internal/snap"
)

// Snap codes the node's accumulated scheduling state. Key is not encoded:
// it is construction-time identity, re-established on rebuild.
func (n *Node) Snap(c *snap.Codec) error {
	snap.AsI64(c, &n.vruntime)
	return c.Err()
}

// snap codes the queue's entities by key, in queue order.
func (q *fifoQueue) snap(c *snap.Codec, lookup func(key uint64) Entity) {
	n := q.len()
	c.Len(&n)
	if c.Loading() {
		// A rebuilt scenario enqueues entities while replaying its
		// construction (VM.Start); the snapshot's queue contents replace
		// them wholesale.
		clearTail(q.items, 0)
		q.items = q.items[:0]
		q.head = 0
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var key uint64
		if !c.Loading() {
			key = q.at(i).SchedNode().Key
		}
		c.U64(&key)
		if c.Loading() && c.Err() == nil {
			e := lookup(key)
			if e == nil {
				c.Fail(fmt.Errorf("sched: snapshot references unknown entity key %d", key))
				return
			}
			q.push(e)
		}
	}
}

// Snap codes every per-pCPU ready queue into a scheduler of identical
// topology.
func (s *fifoSched) Snap(c *snap.Codec, lookup func(key uint64) Entity) error {
	c.Section("sched:fifo")
	c.Shape("queues", len(s.queues))
	for i := range s.queues {
		s.queues[i].snap(c, lookup)
	}
	return c.Err()
}

// Snap codes every per-pCPU ready queue plus its vruntime floor. Entities
// are restored by direct queue insertion, not Enqueue — Enqueue applies the
// sleeper credit, which must not be re-applied on restore.
func (s *fairSched) Snap(c *snap.Codec, lookup func(key uint64) Entity) error {
	c.Section("sched:fair")
	c.Shape("queues", len(s.queues))
	for i := range s.queues {
		s.queues[i].snap(c, lookup)
		snap.AsI64(c, &s.queues[i].minVruntime)
	}
	return c.Err()
}
