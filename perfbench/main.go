// Command perfbench is the repository benchmark. It drives one closed-loop
// workload (paper, lane-fleet or fork; see workloads.go) through the
// simulator's exported experiment entry points, checks every op's output,
// and prints the run's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 215, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput, set-up
// time, allocations per op, peak RSS). With --trace 1 they are the
// per-layer ones: exact work counts from an untraced phase, CPU self time
// per layer and call spans from a CPU-profiled phase, and ratios between
// the phases. Run facts (machine, Go, seed, scale, source tree) precede
// the result as a "facts" JSON line.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// setupSamples is how many cold set-ups a run times; setup_s is their median.
const setupSamples = 5

// laneShards is the lane-fleet shard count; sim.shard_speedup compares it
// with a serial run of the same ops.
const laneShards = 2

// profileHz is the CPU profile's sampling rate in the traced phase.
const profileHz = 250

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	spec  spec
	seed  uint64
	trace bool
	// scale is the workload's experiment scale; the tests shrink it.
	scale float64
	ops   int // per measured phase, fixed by --seconds
	// corruptOp, when not -1, flips that attempted op's result digest:
	// the tests' negative control for the output checks.
	corruptOp int
}

func parse(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, lane-fleet or fork")
	seed := fs.Uint64("seed", 1, "seed every workload input is derived from")
	seconds := fs.Int("seconds", 10, "run length; fixes the op count through the workload's op budget")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	sp, ok := specByName(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return config{}, errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	c := config{spec: sp, seed: *seed, trace: *trace == 1, scale: sp.scale, corruptOp: -1}
	// Whole passes only, so every run covers each input equally often.
	ops := int(math.Round(float64(*seconds) * sp.opsPerSecond))
	c.ops = (ops + sp.pass - 1) / sp.pass * sp.pass
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: the op counters shared by every phase.
type bench struct {
	cfg       config
	stderr    io.Writer
	first     firstDigests
	rss       *rssProbe
	attempted int
	failed    int
}

// do runs one op and checks its output; a failed op is reported and never
// counts as completed.
func (b *bench) do(w workload, i int, t *tally) bool {
	corrupt := b.attempted == b.cfg.corruptOp
	b.attempted++
	kind, d, err := w.op(i, t)
	if err == nil {
		if corrupt {
			d ^= 1
		}
		err = b.first.check(kind, d)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: %s op %d failed: %v\n", b.cfg.spec.name, i, err)
		return false
	}
	return true
}

// phase is what one measured phase of cfg.ops ops reported.
type phase struct {
	tally
	completed int
	// passes holds each whole pass's wall time. Every pass does identical
	// work, so their median is the phase's time per pass; it ignores the
	// second-long stalls a shared host inflicts on a few passes, which a
	// whole-phase mean would absorb.
	passes []float64
	// rss holds each pass's peak resident set in MiB.
	rss      []float64
	allocs   uint64
	gcCycles uint32
	gcCPU    float64 // seconds of GC CPU
	totalCPU float64 // seconds of all CPU
}

// opsPerSec is the phase's throughput: ops per pass over the median pass
// time, counting only completed ops.
func (p phase) opsPerSec() float64 {
	return float64(p.completed) / float64(len(p.passes)) / quantile(p.passes, 0.5)
}

// measure runs cfg.ops ops on w, starting from a collected heap so each
// phase starts from the same state.
func (b *bench) measure(w workload, spans bool) (phase, error) {
	var p phase
	if spans {
		p.spans = map[string][]time.Duration{}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := cpuSeconds()
	for i := 0; i < b.cfg.ops; i += b.cfg.spec.pass {
		if err := b.rss.reset(); err != nil {
			return p, err
		}
		start := time.Now()
		p.completed += b.pass(w, i, &p.tally)
		p.passes = append(p.passes, time.Since(start).Seconds())
		rss, err := b.rss.peak()
		if err != nil {
			return p, err
		}
		p.rss = append(p.rss, rss)
	}
	runtime.ReadMemStats(&m1)
	gc1, all1 := cpuSeconds()
	p.allocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcCPU, p.totalCPU = gc1-gc0, all1-all0
	return p, nil
}

// pass runs the whole pass of ops starting at op i and returns how many
// completed.
func (b *bench) pass(w workload, i int, t *tally) int {
	n := 0
	for j := i; j < i+b.cfg.spec.pass; j++ {
		if b.do(w, j, t) {
			n++
		}
	}
	return n
}

// setup builds a fresh client and runs its first, cold pass, setupSamples
// times, and returns the last client with the median set-up time. The
// first sample counts from process start.
func (b *bench) setup(shards int) (workload, float64, error) {
	var w workload
	times := make([]float64, 0, setupSamples)
	start := processStart
	for k := 0; k < setupSamples; k++ {
		var err error
		if w, err = b.cfg.spec.build(b.cfg.seed, b.cfg.scale, shards); err != nil {
			return nil, 0, err
		}
		b.pass(w, 0, &tally{})
		times = append(times, time.Since(start).Seconds())
		start = time.Now()
	}
	return w, quantile(times, 0.5), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute performs the run cfg describes, prints its facts and result, and
// returns the exit code.
func execute(cfg config, stdout, stderr io.Writer) int {
	rss, err := openRSSProbe()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer rss.close()
	b := &bench{cfg: cfg, stderr: stderr, first: firstDigests{}, rss: rss}
	shards := 1
	if cfg.spec.name == "lane-fleet" {
		shards = laneShards
	}
	w, setupS, err := b.setup(shards)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	plain, err := b.measure(w, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := map[string]metric{}
	if !cfg.trace {
		out["ops_per_s"] = metric{plain.opsPerSec(), "1/s"}
		out["setup_s"] = metric{setupS, "s"}
		out["allocs_per_op"] = metric{float64(plain.allocs) / float64(cfg.ops), "count"}
		out["rss_peak_mb"] = metric{quantile(plain.rss, 0.5), "MiB"}
	} else if err := b.layers(w, shards, plain, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	facts, err := json.Marshal(map[string]any{"facts": runFacts(cfg)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A ratio is infinite only when every op of a phase failed; Marshal then
	// refuses the result and no result line is printed.
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(facts))
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// layers runs the traced phases and fills the per-layer metrics. Exact
// counts and throughput come from the untraced phase plain; CPU self time
// and spans from a CPU-profiled phase over the same ops.
func (b *bench) layers(w workload, shards int, plain phase, out map[string]metric) error {
	var prof bytes.Buffer
	// A finer rate than pprof's fixed 100 Hz gives each layer enough
	// samples per run. Set before StartCPUProfile, the rate sticks; the
	// runtime then warns on stderr that pprof's own 100 Hz request came
	// too late.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := b.measure(w, true)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	self, err := selfTime(prof.Bytes())
	if err != nil {
		return err
	}
	n := float64(b.cfg.ops)
	for _, l := range layers {
		out[l+".cpu_us_per_op"] = metric{float64(self[l]) / 1e3 / n, "us"}
	}
	per := func(v uint64) float64 { return float64(v) / n }
	c := plain.counts
	out["sim.events_per_op"] = metric{per(c.events), "count"}
	out["kvm.exits_per_op"] = metric{per(c.exits), "count"}
	out["kvm.timer_exits_per_op"] = metric{per(c.timerExits), "count"}
	out["kvm.injections_per_op"] = metric{per(c.injections), "count"}
	out["guest.ticks_per_op"] = metric{per(c.ticks), "count"}
	out["guest.ctx_switches_per_op"] = metric{per(c.ctxSwitches), "count"}
	out["iodev.ios_per_op"] = metric{per(c.ios), "count"}
	out["snap.bytes_per_op"] = metric{per(c.snapBytes), "B"}
	out["runtime.gc_cycles_per_op"] = metric{per(uint64(plain.gcCycles)), "count"}

	ms := func(name string, q float64) float64 { return quantile(seconds(traced.spans[name]), q) * 1e3 }
	out["experiment.op_ms_p50"] = metric{ms("op", 0.5), "ms"}
	// The p90 is reported only with at least ten samples beyond it.
	p90 := 0.0
	if len(traced.spans["op"]) >= 100 {
		p90 = ms("op", 0.9)
	}
	out["experiment.op_ms_p90"] = metric{p90, "ms"}
	out["experiment.op_samples"] = metric{float64(len(traced.spans["op"])), "count"}
	out["snap.checkpoint_ms_p50"] = metric{ms("checkpoint", 0.5), "ms"}
	out["snap.encode_us_p50"] = metric{ms("encode", 0.5) * 1e3, "us"}
	out["snap.decode_us_p50"] = metric{ms("decode", 0.5) * 1e3, "us"}
	out["experiment.resume_ms_p50"] = metric{ms("resume", 0.5), "ms"}

	out["sim.events_per_s"] = metric{per(c.events) * plain.opsPerSec(), "1/s"}
	share := 0.0
	if plain.totalCPU > 0 {
		share = plain.gcCPU / plain.totalCPU
	}
	out["runtime.gc_cpu_share"] = metric{share, "fraction"}
	out["bench.trace_overhead_pct"] = metric{(plain.opsPerSec()/traced.opsPerSec() - 1) * 100, "%"}
	speedup := 0.0
	if shards > 1 {
		serial, err := b.cfg.spec.build(b.cfg.seed, b.cfg.scale, 1)
		if err != nil {
			return err
		}
		p, err := b.measure(serial, false)
		if err != nil {
			return err
		}
		speedup = plain.opsPerSec() / p.opsPerSec()
	}
	out["sim.shard_speedup"] = metric{speedup, "x"}
	return nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
