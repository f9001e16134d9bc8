package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkPath is the benchmark description, relative to the
// repository root the command runs from.
const benchmarkPath = "BENCHMARK.json"

// benchmarkFile is BENCHMARK.json, as far as this command reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &bm, nil
}

// agreeRow is one workload's op measure across the sets. Steady and
// Agree are judged only for a measure BENCHMARK.json bounds (Bound > 0).
type agreeRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Bound    float64     `json:"bound"`
	Values   [][]float64 `json:"values"` // one value per invocation, per set
	Median   []float64   `json:"median"`
	Spread   []float64   `json:"spread"` // interquartile range over median, per set
	Worse    []float64   `json:"worse"`  // how much worse than set 1's median, as a share of it
	Steady   bool        `json:"steady"` // every spread below a third of the bound
	Agree    bool        `json:"agree"`  // no set median off set 1's by more than the bound, either way
}

// runAgree runs the benchmark as defined in BENCHMARK.json: every
// workload (or just --workload) o.invocations times per set, in o.sets
// sets, each run with its own seed. For every op measure it prints each
// set's median and spread and, for the end-to-end metrics, whether the
// spreads stay below a third of the metric's bound and whether the set
// medians agree within the bound.
func runAgree(o options, stdout io.Writer) error {
	bm, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range bm.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload %q in %s", o.workload, benchmarkPath)
	}
	// values[workload][metric][set] holds one value per invocation.
	values := map[string]map[string][][]float64{}
	for set := 0; set < o.sets; set++ {
		for _, name := range names {
			if values[name] == nil {
				values[name] = map[string][][]float64{}
			}
			for i := 0; i < o.invocations; i++ {
				seed := o.seed + uint64(set*o.invocations+i)
				res, measured, err := invokeBenchmark(exe, o, name, seed, bm.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: incorrect output (%d of %d ops failed)", name, seed, res.Failed, res.Attempted)
				}
				for _, m := range opMeasures {
					v := values[name][m.name]
					for len(v) <= set {
						v = append(v, nil)
					}
					v[set] = append(v[set], measured[m.name])
					values[name][m.name] = v
				}
				fmt.Fprintf(os.Stderr, "agree: set %d %s seed %d done\n", set+1, name, seed)
			}
		}
	}

	var rows []agreeRow
	fmt.Fprintf(stdout, "%-8s %-12s %6s", "workload", "metric", "bound")
	for set := 0; set < o.sets; set++ {
		fmt.Fprintf(stdout, " | set%d median  spread   worse", set+1)
	}
	fmt.Fprintln(stdout, " | steady agree")
	bounds := map[string]float64{}
	for _, m := range bm.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, name := range names {
		for _, m := range opMeasures { // every op measure is lower-is-better
			row := agreeRow{Workload: name, Metric: m.name, Bound: bounds[m.name], Steady: true, Agree: true}
			fmt.Fprintf(stdout, "%-8s %-12s %6.3f", name, m.name, row.Bound)
			for _, xs := range values[name][m.name] {
				med, sp := median(xs), spread(xs)
				first := med
				if len(row.Median) > 0 {
					first = row.Median[0]
				}
				worse := (med - first) / first
				row.Values = append(row.Values, xs)
				row.Median = append(row.Median, med)
				row.Spread = append(row.Spread, sp)
				row.Worse = append(row.Worse, worse)
				row.Steady = row.Steady && sp < row.Bound/3
				row.Agree = row.Agree && math.Abs(worse) <= row.Bound
				fmt.Fprintf(stdout, " | %11.5g %7.4f %+7.4f", med, sp, worse)
			}
			if row.Bound > 0 {
				fmt.Fprintf(stdout, " | %-6v %v\n", row.Steady, row.Agree)
			} else {
				fmt.Fprintln(stdout, " | not in BENCHMARK.json")
			}
			rows = append(rows, row)
		}
	}
	if o.agreeOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(struct {
		Meta        meta       `json:"meta"`
		Sets        int        `json:"sets"`
		Invocations int        `json:"invocations"`
		Rows        []agreeRow `json:"rows"`
	}{newMeta(o, 0), o.sets, o.invocations, rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.agreeOut, append(b, '\n'), 0o644)
}

// invokeBenchmark runs one benchmark invocation, as BENCHMARK.json's
// command runs it, and parses its last output line and the run's value
// of every op measure from its e2e lines.
func invokeBenchmark(exe string, o options, workload string, seed uint64, seconds int) (*result, map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--scratch", o.scratch, "--digests", o.digests)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, err
	}
	measured := map[string]float64{}
	for _, l := range lines {
		// e2e NAME median VALUE min ...
		if f := strings.Fields(string(l)); len(f) > 3 && f[0] == "e2e" {
			if measured[f[1]], err = strconv.ParseFloat(f[3], 64); err != nil {
				return nil, nil, fmt.Errorf("parsing %q: %w", l, err)
			}
		}
	}
	return &res, measured, nil
}
