package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"time"

	"paratick/internal/experiment"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// workload is one closed-loop client. A client is built fresh for every
// set-up, so its first op always runs cold.
type workload interface {
	// op performs request i, checks what the output must satisfy on its
	// own, adds the work the output reports to t, and returns the op's kind
	// and the digest of its output. Every op of a kind must reproduce the
	// digest of the run's first op of that kind.
	op(i int, t *tally) (kind string, digest uint64, err error)
}

// spec describes one workload: its fixed input size, its fixed op budget,
// and how to build a fresh client for a seed.
type spec struct {
	name string
	// scale is experiment.Options.Scale for every op.
	scale float64
	// opsPerSecond fixes the work of a run: a run of --seconds s performs
	// round(s * opsPerSecond) ops, rounded up to whole passes, so both sides
	// of a comparison always do identical work. At the values below a run
	// takes roughly --seconds on a 2-vCPU Xeon host; a faster program
	// finishes sooner.
	opsPerSecond float64
	// pass is the number of ops in one pass: every pass does identical
	// work, and a run's throughput is read from its median pass.
	pass int
	// build returns a fresh client; shards is the lane-fleet shard count.
	build func(seed uint64, scale float64, shards int) (workload, error)
}

var specs = []spec{
	{name: "paper", scale: 0.1, opsPerSecond: 30, pass: paperSeeds * len(paperDrivers), build: newPaper},
	{name: "lane-fleet", scale: 0.02, opsPerSecond: 35, pass: 4, build: newLaneFleet},
	{name: "fork", scale: 0.05, opsPerSecond: 250, pass: forkPass, build: newFork},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// counts is the work the program's outputs report, summed over ops.
type counts struct {
	events, exits, timerExits, injections, ticks, ctxSwitches, ios, snapBytes uint64
}

func (c *counts) addResult(r *metrics.Result) {
	c.exits += r.Counters.TotalExits()
	c.timerExits += r.Counters.TimerExits()
	c.injections += r.Counters.Injections
	c.ticks += r.Counters.GuestTicks
	c.ctxSwitches += r.Counters.ContextSw
	c.ios += r.Counters.IOOps()
}

// tally accumulates what a phase of ops reported. Spans are recorded only
// when spans is non-nil.
type tally struct {
	counts
	spans map[string][]time.Duration
}

// span times one call into the program when spans are recorded.
func (t *tally) span(name string, f func() error) error {
	if t.spans == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.spans[name] = append(t.spans[name], time.Since(start))
	return err
}

// digest hashes every field of the value p points to, unexported ones
// included, with FNV-1a. It walks the value by reflection without
// allocating, so the output checks add nothing to allocs_per_op.
func digest(p any) uint64 {
	h := uint64(14695981039346656037)
	hashValue(&h, reflect.ValueOf(p).Elem())
	return h
}

func hashValue(h *uint64, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		hashU64(h, boolInt(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		hashU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		hashU64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		hashU64(h, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		hashU64(h, uint64(len(s)))
		for i := 0; i < len(s); i++ {
			*h = (*h ^ uint64(s[i])) * 1099511628211
		}
	case reflect.Array, reflect.Slice:
		hashU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		hashU64(h, boolInt(v.IsNil()))
		if !v.IsNil() {
			hashValue(h, v.Elem())
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %v in %v", v.Kind(), v.Type()))
	}
}

func hashU64(h *uint64, x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ x&0xff) * 1099511628211
		x >>= 8
	}
}

func boolInt(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// firstDigests holds each op kind's first digest in a run. That op ran
// cold at the first set-up, so a match shows that pooled runs equal fresh
// ones and that Shards=1 equals Shards=2.
type firstDigests map[string]uint64

func (f firstDigests) check(kind string, d uint64) error {
	want, ok := f[kind]
	if !ok {
		f[kind] = d
		return nil
	}
	if d != want {
		return fmt.Errorf("%s: result digest %016x, first op gave %016x", kind, d, want)
	}
	return nil
}

// options returns the experiment options every op of a workload uses.
func options(seed uint64, scale float64) experiment.Options {
	o := experiment.DefaultOptions()
	o.Seed = seed
	o.Scale = scale
	o.Workers = 1
	return o
}

// paperDrivers is the paper workload's op cycle: the CPU and
// synchronization half of the evaluation, in the order the CLI runs it.
var paperDrivers = [...]string{"table1", "fig4", "fig5/small", "fig5/medium", "fig5/large"}

// paperSeeds is how many seeds a paper pass runs the cycle under. The
// drivers' work depends on the seed; averaging it over several seeds per
// pass keeps one --seed's throughput close to another's.
const paperSeeds = 4

// paper runs one paper evaluation driver per op, all through one worker
// pool, so every op after the first pass runs on recycled worlds.
type paper struct {
	opts  experiment.Options
	seeds [paperSeeds]uint64
	// kinds names each op of a pass, by driver and seed.
	kinds [paperSeeds * len(paperDrivers)]string
}

func newPaper(seed uint64, scale float64, _ int) (workload, error) {
	o := options(seed, scale)
	o.Pool = experiment.NewWorkerPool()
	o.Meter = &metrics.Meter{}
	p := &paper{opts: o}
	// The first cycle runs under --seed itself, the others under seeds
	// drawn from it.
	p.seeds[0] = seed
	for k := 1; k < paperSeeds; k++ {
		p.seeds[k] = mix(seed ^ mix(uint64(k)))
	}
	for i := range p.kinds {
		p.kinds[i] = fmt.Sprintf("%s/seed%d", paperDrivers[i%len(paperDrivers)], i/len(paperDrivers))
	}
	return p, nil
}

func (p *paper) op(i int, t *tally) (string, uint64, error) {
	j := i % len(paperDrivers)
	k := i / len(paperDrivers) % paperSeeds
	kind := p.kinds[i%len(p.kinds)]
	opts := p.opts
	opts.Seed = p.seeds[k]
	events := opts.Meter.Events()
	var d uint64
	err := t.span("op", func() error {
		if j == 0 {
			r, err := experiment.RunTable1(opts)
			if err != nil {
				return err
			}
			for _, row := range r.Rows {
				t.timerExits += row.SimPeriodic + row.SimTickless + row.SimParatick
				if row.SimParatick > row.SimTickless {
					return fmt.Errorf("table1 %s: paratick %d timer exits > dynticks %d",
						row.Workload, row.SimParatick, row.SimTickless)
				}
			}
			d = digest(r)
			return nil
		}
		var fig *experiment.ParsecFigure
		var err error
		if j == 1 {
			fig, err = experiment.RunFig4(opts)
		} else {
			fig, err = experiment.RunFig5Size(opts, experiment.VMSizes()[j-2])
		}
		if err != nil {
			return err
		}
		for j := range fig.Comparisons {
			t.addResult(&fig.Comparisons[j].Baseline)
			t.addResult(&fig.Comparisons[j].Optimized)
		}
		d = digest(fig)
		return nil
	})
	t.events += opts.Meter.Events() - events
	if err != nil {
		return "", 0, fmt.Errorf("%s: %w", kind, err)
	}
	return kind, d, nil
}

// laneFleetVMs is the fleet size: 16 socket-contained VMs per socket of the
// paper topology, enough that both shards always have lanes to run.
const laneFleetVMs = 64

// laneFleet runs the 64-VM lane-mode fleet on the sharded engine per op.
// RunShardFleet takes no pool, so every op builds a fresh world.
type laneFleet struct {
	opts experiment.Options
}

func newLaneFleet(seed uint64, scale float64, shards int) (workload, error) {
	o := options(seed, scale)
	o.Shards = shards
	o.Meter = &metrics.Meter{}
	return &laneFleet{opts: o}, nil
}

func (l *laneFleet) op(_ int, t *tally) (string, uint64, error) {
	var r *experiment.ShardFleetResult
	err := t.span("op", func() (err error) {
		r, err = experiment.RunShardFleet(l.opts, laneFleetVMs)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	t.events += r.Events
	for j := range r.Results {
		t.addResult(&r.Results[j])
	}
	return "shardfleet", digest(r), nil
}

// The fork workload's fleet and timeline. A quantum a tenth of the
// default keeps the simulated span a few hundred microseconds, so an op's
// cost is world construction and the checkpoint codec rather than the
// engine.
const (
	forkVMs     = 32
	forkQuantum = 100 * sim.Microsecond
	// forkHorizon is the simulated length every run is resumed to.
	forkHorizon = 4 * forkQuantum
	// forkInstants is how many quantum-aligned fork points ops draw from.
	forkInstants = 2
	// forkPass is the ops per pass. Each pass forks at every instant
	// equally often, in a seed-drawn order.
	forkPass = 20
)

// fork round-trips a checkpoint per op: freeze the fleet at a seed-ordered
// early instant, encode, decode, and resume to the horizon.
type fork struct {
	scenario experiment.Scenario
	seed     uint64
	// at is the fork point of each position in a pass.
	at [forkPass]sim.Time
	// want is the digest of a straight run to the horizon; every resumed
	// run must reproduce it, whatever its fork point.
	want uint64
}

func newFork(seed uint64, scale float64, _ int) (workload, error) {
	o := options(seed, scale)
	o.Quantum = forkQuantum
	s, err := experiment.ShardFleetScenario(o, forkVMs)
	if err != nil {
		return nil, err
	}
	s.Duration = forkHorizon
	straight, err := experiment.RunScenario(s, seed)
	if err != nil {
		return nil, fmt.Errorf("fork straight run: %w", err)
	}
	f := &fork{scenario: s, seed: seed, want: digest(straight)}
	// A Fisher-Yates shuffle, drawn from the seed, of the pass's instants.
	for j := range f.at {
		f.at[j] = forkQuantum * sim.Time(1+j%forkInstants)
	}
	for j := len(f.at) - 1; j > 0; j-- {
		k := mix(seed^mix(uint64(j))) % uint64(j+1)
		f.at[j], f.at[k] = f.at[k], f.at[j]
	}
	return f, nil
}

func (f *fork) op(i int, t *tally) (string, uint64, error) {
	var (
		ck      *experiment.Checkpoint
		b       []byte
		loaded  *experiment.Checkpoint
		resumed *experiment.ScenarioResult
	)
	err := t.span("op", func() error {
		err := t.span("checkpoint", func() (err error) {
			ck, err = experiment.CheckpointScenario(f.scenario, f.seed, f.at[i%forkPass])
			return err
		})
		if err != nil {
			return err
		}
		_ = t.span("encode", func() error { b = ck.Bytes(); return nil })
		if err := t.span("decode", func() (err error) { loaded, err = experiment.LoadCheckpoint(b); return err }); err != nil {
			return err
		}
		return t.span("resume", func() (err error) {
			resumed, err = experiment.ResumeScenario(f.scenario, loaded)
			return err
		})
	})
	if err != nil {
		return "", 0, err
	}
	t.snapBytes += uint64(len(b))
	t.events += resumed.Events
	for j := range resumed.Results {
		t.addResult(&resumed.Results[j])
	}
	if !bytes.Equal(loaded.Bytes(), b) {
		return "", 0, fmt.Errorf("decoded checkpoint re-encodes to different bytes")
	}
	d := digest(resumed)
	if d != f.want {
		return "", 0, fmt.Errorf("resumed at %v: digest %016x, straight run %016x", ck.At(), d, f.want)
	}
	return "fork", d, nil
}

// mix is the splitmix64 finalizer, used to draw per-op inputs from the seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
