package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinyScale shrinks every workload so a whole run takes a fraction of a
// second; the code paths are the full-size ones.
const tinyScale = 0.005

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one tiny one-second workload run, with op corruptOp's
// digest flipped unless it is -1, and decodes its result line.
func runTiny(t *testing.T, corruptOp int, args ...string) (config, int, result, string) {
	t.Helper()
	cfg, err := parse(append([]string{"--seed", "3", "--seconds", "1"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.scale, cfg.corruptOp = tinyScale, corruptOp
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return cfg, code, res, stderr.String()
}

func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			_, code, res, stderr := runTiny(t, -1, "--workload", sp.name, "--trace", strconv.Itoa(trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: exit %d, result %+v\n%s", sp.name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", sp.name, trace, len(res.Metrics), len(want))
			}
			var cpu float64
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", sp.name, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace %d: metric %s unit %q, declared %q", sp.name, trace, name, got.Unit, unit)
				}
				if strings.HasSuffix(name, ".cpu_us_per_op") {
					cpu += got.Value
				}
			}
			if trace == 1 && cpu <= 0 {
				t.Errorf("%s: the CPU profile attributed no time to any layer", sp.name)
			}
		}
	}
}

// TestCorruptDigestFailsTheOp is the negative control for the output
// checks: one op whose result digest is flipped must count as failed, make
// the run incorrect, and make the command exit non-zero.
func TestCorruptDigestFailsTheOp(t *testing.T) {
	sp, _ := specByName("paper")
	// Op sp.pass is the second set-up's cold table1 run, checked against
	// the first set-up's.
	cfg, code, res, stderr := runTiny(t, sp.pass, "--workload", "paper", "--trace", "0")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted op: exit %d, result %+v; want non-zero exit, incorrect, 1 failed\n%s", code, res, stderr)
	}
	if want := setupSamples*sp.pass + cfg.ops; res.Attempted != want {
		t.Errorf("attempted %d ops, want %d", res.Attempted, want)
	}
	if !strings.Contains(stderr, "table1/seed0: result digest") {
		t.Errorf("stderr does not name the mismatched digest:\n%s", stderr)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"paratick/internal/sim.(*Engine).batchInsert":                    "sim",
		"paratick/internal/experiment.runParallel[go.shape.uint64]":      "experiment",
		"paratick/internal/kvm.(*PCPU).exec":                             "kvm",
		"paratick/internal/sched.(*FIFO).Pick":                           "other",
		"runtime.mallocgc":                                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                   "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                         "runtime",
		"sync/atomic.(*Int64).Add":                                       "other",
		"main.(*bench).do":                                               "other",
		"paratick/internal/snap.(*Encoder).U64":                          "snap",
		"paratick/internal/metrics.(*Histogram).Add":                     "metrics",
		"paratick/internal/guest.(*VCPU).applyStep":                      "guest",
		"paratick/internal/iodev.(*Device).start":                        "iodev",
		"paratick/internal/experiment.fn[go.shape.struct { a/b.c int }]": "experiment",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
