package experiment

// Checkpoint support for the experiment-layer programs, mirroring
// internal/workload/snapshot.go: each program serializes exactly the fields
// its Next mutates; construction-time parameters (devices, locks, horizons)
// come back from rebuilding the scenario.

import (
	"paratick/internal/guest"
	"paratick/internal/snap"
)

var (
	_ guest.ProgramState = (*idleCycleProgram)(nil)
	_ guest.ProgramState = (*timerAppProgram)(nil)
	_ guest.ProgramState = (*spinLockProgram)(nil)
)

// SnapState implements guest.ProgramState.
func (p *idleCycleProgram) SnapState(c *snap.Codec) error {
	c.Bool(&p.inIO)
	return c.Err()
}

// SnapState implements guest.ProgramState.
func (p *timerAppProgram) SnapState(c *snap.Codec) error {
	snap.AsI64(c, &p.iters)
	c.Bool(&p.sleeping)
	return c.Err()
}

// SnapState implements guest.ProgramState.
func (p *spinLockProgram) SnapState(c *snap.Codec) error {
	snap.AsI64(c, &p.iters)
	snap.AsI64(c, &p.phase)
	return c.Err()
}
