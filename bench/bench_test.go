package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark command: the
// benchmark re-executes itself with --child for every op.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--child") {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func readSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	s, err := readBenchmark(filepath.Join("..", benchmarkPath))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the command knows.
func TestSpecMatchesCatalog(t *testing.T) {
	s := readSpec(t)
	var e2e, layers []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", e2e, e2eMetrics)
	}
	if !slices.Equal(layers, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", layers, layerMetrics)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, command has %s at %d", names, w.name, i)
		}
	}
}

// TestSmoke runs every workload at 500 users, untraced and traced, and
// checks the output line: every metric named with its unit, the op's
// digest equal to the serial reference's, and the traced layer times
// adding up to the traced wall time. The untraced run uses seed 3,
// which has no committed digest, so its ops must agree with each other
// and its known-answer op with the committed digest. The traced run
// uses the known-answer input itself, whose committed digest its op and
// its serial reference must both reproduce.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	units := map[string]string{}
	for _, m := range s.EndToEnd {
		units[m.Name] = m.Unit
	}
	layerUnits := map[string]string{}
	for _, m := range s.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	for _, w := range s.Workloads {
		for _, c := range []struct{ seed, trace int }{{3, 0}, {checkSeed, 1}} {
			trace := c.trace
			t.Run(fmt.Sprintf("%s/seed%d/trace%d", w.Name, c.seed, trace), func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", strconv.Itoa(c.seed), "--seconds", "0", "--trace", strconv.Itoa(trace),
					"--users", strconv.Itoa(checkUsers), "--scratch", t.TempDir(), "--digests", "testdata/digests.json"}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &keys); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
				}
				if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
					t.Fatalf("last line keys: %s", lines[len(lines)-1])
				}
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := units
				if trace == 1 {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
					if trace == 0 && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if trace == 1 {
					sum := res.Metrics["trace.unaccounted_pct"].Value
					for _, sp := range shareSpans {
						sum += res.Metrics[sp+"_pct"].Value
					}
					for _, sp := range setupSpans {
						sum += 100 * res.Metrics[sp+"_s"].Value / res.Metrics["trace.wall_s"].Value
					}
					if math.Abs(sum-100) > 1e-6 {
						t.Errorf("layer shares plus unaccounted add up to %v%%, want 100%%", sum)
					}
				}
			})
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
