package workload

// Checkpoint support for the workload programs. Each program serializes
// only the fields its Next reads and mutates; construction-time parameters
// (job descriptions, devices, lock/barrier pointers) are re-established by
// rebuilding the scenario and are deliberately absent from the encoding.

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/snap"
)

var (
	_ guest.ProgramState = (*fioProgram)(nil)
	_ guest.ProgramState = (*syncProgram)(nil)
	_ guest.ProgramState = (*seqProgram)(nil)
	_ guest.ProgramState = (*parProgram)(nil)
)

// SnapState implements guest.ProgramState.
func (f *fioProgram) SnapState(c *snap.Codec) error {
	snap.AsI64(c, &f.opsLeft)
	c.Bool(&f.thinking)
	snap.AsI64(c, &f.opIndex)
	return c.Err()
}

// SnapState implements guest.ProgramState.
func (p *syncProgram) SnapState(c *snap.Codec) error {
	snap.AsI64(c, &p.phase)
	c.Bool(&p.done)
	c.Bool(&p.left)
	return c.Err()
}

// SnapState implements guest.ProgramState.
func (s *seqProgram) SnapState(c *snap.Codec) error {
	snap.AsI64(c, &s.remaining)
	c.Bool(&s.ioPending)
	c.Bool(&s.ioSeq)
	return c.Err()
}

// SnapState implements guest.ProgramState. The current-iteration lock is
// coded as its index into the thread's stripe slice (-1 when none is held
// or pending), never as a pointer.
func (t *parProgram) SnapState(c *snap.Codec) error {
	idx := int64(-1)
	for i, l := range t.locks {
		if l == t.lock {
			idx = int64(i)
			break
		}
	}
	c.I64(&idx)
	snap.AsI64(c, &t.remaining)
	snap.AsI64(c, &t.iter)
	snap.AsI64(c, &t.phase)
	c.Bool(&t.left)
	if c.Loading() && c.Err() == nil {
		t.lock = nil
		if idx >= int64(len(t.locks)) {
			c.Fail(fmt.Errorf("workload: %s: snapshot lock stripe %d out of %d", t.p.Name, idx, len(t.locks)))
		} else if idx >= 0 {
			t.lock = t.locks[idx]
		}
	}
	return c.Err()
}
