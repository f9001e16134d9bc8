// Command mnobench is the repository benchmark. It runs one seeded
// workload of the synthetic-MNO pipeline from outside, checks the
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.91, "unit": "s"}, ...}}
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload study-50k --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload study-50k --seed 42 --trace 1 --trace-out study.trace.json
//	bash bench/run.sh --agree --sets 2 --invocations 5
//
// Every op runs in a fresh child process (the command re-executes
// itself, one child at a time, with GOMAXPROCS=2). Workloads, metrics
// and how to read a trace are described in bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	users    int
	scratch  string
	digests  string
	update   bool

	agree       bool
	sets        int
	invocations int
	agreeOut    string

	child string // internal: the role of a child process
	dir   string // internal: the parent's scratch directory
}

func run(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("mnobench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: study-50k, sweep-8k, monitor-4k or replay-15k")
	fs.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 15, "run ops for this many seconds (at least one op)")
	fs.IntVar(&o.trace, "trace", 0, "1: run the traced serial composition and report per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, also write the spans and metrics to this JSON file")
	fs.IntVar(&o.users, "users", 0, "override the workload's user count (0: the workload's own)")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for temporary files (removed at exit)")
	fs.StringVar(&o.digests, "digests", "bench/testdata/digests.json", "committed output digests")
	fs.BoolVar(&o.update, "update", false, "record this run's output digest in --digests")
	fs.BoolVar(&o.agree, "agree", false, "agreement tool: run every workload in --sets sets of --invocations runs")
	fs.IntVar(&o.sets, "sets", 2, "agreement tool: number of sets")
	fs.IntVar(&o.invocations, "invocations", 5, "agreement tool: runs per set and workload, each with its own seed")
	fs.StringVar(&o.agreeOut, "agree-out", "", "agreement tool: also write the results to this JSON file")
	fs.StringVar(&o.child, "child", "", "internal: run one child role")
	fs.StringVar(&o.dir, "dir", "", "internal: the parent's scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.child != "":
		err = runChild(o, stdout)
	case o.agree:
		err = runAgree(o, stdout)
	default:
		err = runBenchmark(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mnobench: %v\n", err)
		return 1
	}
	return 0
}

// childResult is the one JSON line a child prints.
type childResult struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`

	Digest       string             `json:"digest"`
	SubOps       int                `json:"sub_ops"`
	SubFailed    int                `json:"sub_failed"`
	Checks       int                `json:"checks"`
	ChecksFailed int                `json:"checks_failed"`
	TempBytes    int64              `json:"temp_bytes,omitempty"`
	DayGapsMS    []float64          `json:"day_gaps_ms,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
	Err          string             `json:"err,omitempty"`
}

// Child roles.
const (
	rolePrepare   = "prepare"    // write the workload's inputs
	roleSetup     = "setup"      // an op's set-up alone
	roleOp        = "op"         // one end-to-end op
	roleOpProbed  = "op-probed"  // one op with the stream engine probed
	roleRef       = "ref"        // the serial reference composition
	roleRefTraced = "ref-traced" // the same, recording spans
)

func runChild(o options, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	e := env{seed: o.seed, users: o.users, dir: o.dir}
	ctx := context.Background()
	var r childResult
	switch o.child {
	case rolePrepare:
		err = w.prepare(e)
	case roleSetup, roleOp, roleOpProbed:
		m := newMeter()
		var run opRun
		if run, err = w.op(e); err != nil {
			break
		}
		m.startRun()
		if o.child == roleSetup {
			r.SetupS = m.setup.Seconds()
			break
		}
		var p *streamProbe
		if o.child == roleOpProbed {
			p = &streamProbe{}
		}
		var out opOut
		out, err = run(ctx, p)
		m.stop(&r)
		r.Digest, r.SubOps, r.SubFailed = out.digest, out.subOps, out.subFailed
		r.Checks, r.ChecksFailed = out.checks, out.checksFailed
		r.TempBytes, r.DayGapsMS = out.tempBytes, out.dayGapsMS
		if p != nil {
			r.Layers = opLayers(p, out)
		}
	case roleRef, roleRefTraced:
		var tr *tracer
		if o.child == roleRefTraced {
			tr = newTracer()
		}
		var c counts
		var before, after runtime.MemStats
		r.SubOps = 1
		runtime.ReadMemStats(&before)
		tr.begin(rootSpan)
		r.Digest, err = w.ref(e, tr, &c)
		tr.end()
		runtime.ReadMemStats(&after)
		if tr != nil {
			r.Spans = tr.spans
			r.Layers = spanLayers(tr.spans, c, &before, &after)
		}
	default:
		return fmt.Errorf("unknown child role %q", o.child)
	}
	if err != nil {
		r.Err = err.Error()
	}
	return json.NewEncoder(stdout).Encode(r)
}

// checkSeed and checkUsers fix the known-answer input: every untraced
// run also runs one small op on it and compares its digest with the
// committed one, so each run checks its outputs whatever its seed.
const (
	checkSeed  = 42
	checkUsers = 500
)

// minSetups is how many set-up samples an untraced run aims for.
const minSetups = 15

// children starts child processes of this command, one at a time.
type children struct {
	exe      string
	workload *workload
}

// call runs one child role on e and waits for it to exit.
func (c children) call(role string, e env) (childResult, error) {
	cmd := exec.Command(c.exe, "--child", role, "--workload", c.workload.name,
		"--seed", strconv.FormatUint(e.seed, 10), "--users", strconv.Itoa(e.users), "--dir", e.dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs), "GOGC=100")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", role, err)
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", role, err)
	}
	return r, nil
}

// prepare writes e's inputs, for a workload that has any.
func (c children) prepare(e env) error {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	if c.workload.prepare == nil {
		return nil
	}
	r, err := c.call(rolePrepare, e)
	if err == nil && r.Err != "" {
		err = errors.New(r.Err)
	}
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	return nil
}

// reference runs the serial reference composition on e and returns it
// with the digest ops on e must reproduce: want when it is set and
// update is off, else the reference's own. A failed reference returns a
// digest no op can match. The reference is an operation of its own,
// counted in res and checked against that digest too, so a reference
// that no longer computes a committed output fails the run even when
// the ops still reproduce it.
func (c children) reference(role string, e env, want string, update bool, res *result) (childResult, string, error) {
	ref, err := c.call(role, e)
	if err != nil {
		return ref, "", err
	}
	switch {
	case ref.Err != "":
		want = "reference failed"
	case want == "" || update:
		want = ref.Digest
	}
	res.Attempted += ref.SubOps
	res.Failed += failures("reference", []childResult{ref}, want)
	return ref, want, nil
}

// failures counts the failed operations of rs: all of a child's
// operations fail when it reports an error or its digest is not want.
func failures(what string, rs []childResult, want string) int {
	n := 0
	for _, r := range rs {
		switch {
		case r.Err != "":
			fmt.Fprintf(os.Stderr, "mnobench: %s failed: %s\n", what, r.Err)
			n += max(r.SubFailed, 1)
		case r.Digest != want:
			fmt.Fprintf(os.Stderr, "mnobench: %s digest %s, want %s\n", what, r.Digest, want)
			n += r.SubOps
		}
	}
	return n
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBenchmark is one invocation. Untraced, it runs ops until o.seconds
// have passed and checks that they all produce one digest (the
// committed one, if the seed has one), then runs the known-answer op.
// Traced, it runs one probed op and the traced serial reference: both
// must reproduce the committed digest where the seed has one, else the
// op must reproduce the reference's. With o.update it also runs the
// serial references and records their digests when every op agrees.
func runBenchmark(o options, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	users := w.users
	if o.users > 0 {
		users = o.users
	}
	golden, err := readGolden(o.digests)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := children{exe: exe, workload: w}
	md := newMeta(o, users)
	run := env{seed: o.seed, users: users, dir: filepath.Join(dir, "run")}
	if err := c.prepare(run); err != nil {
		return err
	}
	md.TempPeakBytes = dirSize(run.dir)

	var ops []childResult
	var setups []float64 // set-up samples, of the ops and of set-up children
	if o.trace == 1 {
		r, err := c.call(roleOpProbed, run)
		if err != nil {
			return err
		}
		ops = append(ops, r)
	} else {
		runTime := time.Duration(o.seconds) * time.Second
		for start := time.Now(); len(ops) == 0 || time.Since(start) < runTime; {
			r, err := c.call(roleOp, run)
			if err != nil {
				return err
			}
			ops = append(ops, r)
			setups = append(setups, r.SetupS)
		}
		// A run holds as few as two ops, and set-up times are the
		// noisiest. Set up alone in more children, at least one, until
		// the run has minSetups samples or they took a quarter of the run.
		for start := time.Now(); ; {
			r, err := c.call(roleSetup, run)
			if err == nil && r.Err != "" {
				err = errors.New(r.Err)
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, r.SetupS)
			if len(setups) >= minSetups || time.Since(start) >= runTime/4 {
				break
			}
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	key := goldenKey(w.name, run.users, run.seed)
	want := golden[key]
	var ref childResult
	if o.trace == 1 || o.update {
		role := roleRef
		if o.trace == 1 {
			role = roleRefTraced
		}
		if ref, want, err = c.reference(role, run, want, o.update, &res); err != nil {
			return err
		}
	}
	if want == "" {
		want = ops[0].Digest // ops run in separate processes and must agree
	}
	checksFailed := 0
	for _, r := range ops {
		res.Attempted += r.SubOps
		checksFailed = max(checksFailed, r.ChecksFailed)
		md.TempPeakBytes = max(md.TempPeakBytes, r.TempBytes)
	}
	res.Failed += failures("op", ops, want)
	updates := map[string]string{key: want}

	if o.trace == 0 {
		check := env{seed: checkSeed, users: checkUsers, dir: filepath.Join(dir, "check")}
		ckey := goldenKey(w.name, check.users, check.seed)
		if err := c.prepare(check); err != nil {
			return err
		}
		r, err := c.call(roleOp, check)
		if err != nil {
			return err
		}
		cwant := golden[ckey]
		if o.update {
			if _, cwant, err = c.reference(roleRef, check, cwant, true, &res); err != nil {
				return err
			}
		}
		if cwant == "" {
			fmt.Fprintf(os.Stderr, "mnobench: %s has no digest for the known-answer input %s\n", o.digests, ckey)
			cwant = "missing"
		}
		res.Attempted += r.SubOps
		res.Failed += failures("known-answer op", []childResult{r}, cwant)
		updates[ckey] = cwant
	}
	res.Correct = res.Failed == 0
	md.Ops = len(ops)

	mdJSON, err := json.Marshal(md)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "meta %s\n", mdJSON)
	fmt.Fprintf(stdout, "digest %s want %s checks %d failed_checks %d\n", ops[0].Digest, want, ops[0].Checks, checksFailed)

	if o.trace == 1 {
		layers := map[string]float64{}
		for k, v := range ops[0].Layers {
			layers[k] = v
		}
		for k, v := range ref.Layers {
			layers[k] = v
		}
		for _, d := range layerMetrics {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
			fmt.Fprintf(stdout, "layer %-32s %14.6g %s\n", d.name, layers[d.name], d.unit)
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, md, ref.Spans, layers); err != nil {
				return err
			}
		}
	} else {
		samples := map[string][]float64{"setup_s": setups}
		for _, r := range ops {
			for name, v := range map[string]float64{
				"wall_s": r.WallS, "cpu_s": r.CPUS, "peak_rss_mb": r.PeakRSSMB, "alloc_mb": r.AllocMB,
			} {
				samples[name] = append(samples[name], v)
			}
		}
		for _, d := range opMeasures {
			s := sorted(samples[d.name])
			fmt.Fprintf(stdout, "e2e %-12s median %.10g min %.6g max %.6g n %d %s\n", d.name, median(s), s[0], s[len(s)-1], len(s), d.unit)
		}
		for _, d := range e2eMetrics {
			res.Metrics[d.name] = metricValue{median(samples[d.name]), d.unit}
		}
		if gaps := ops[0].DayGapsMS; len(gaps) > 0 {
			var all []float64
			for _, r := range ops {
				all = append(all, r.DayGapsMS...)
			}
			fmt.Fprintf(stdout, "day_gap_ms p50 %.3f p90 %.3f n %d\n", percentile(all, 50), percentile(all, 90), len(all))
		}
	}
	if o.update && res.Correct {
		for k, v := range updates {
			if err := writeGolden(o.digests, k, v); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// meta describes the runner and the run; it heads every output.
type meta struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	Users         int    `json:"users"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	Ops           int    `json:"ops"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"nproc"`
	CPUModel      string `json:"cpu_model"`
	GitSHA        string `json:"git_sha"`
	TempPeakBytes int64  `json:"temp_peak_bytes"`
}

func newMeta(o options, users int) meta {
	return meta{
		Workload: o.workload, Seed: o.seed, Users: users, Seconds: o.seconds, Trace: o.trace == 1,
		GoVersion: runtime.Version(), GOMAXPROCS: procs, NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GitSHA: gitSHA(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA returns the checkout's commit, with "-dirty" when the tree has
// changes, or "unknown" outside a git checkout.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	out := strings.TrimSpace(string(sha))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		out += "-dirty"
	}
	return out
}

func writeTrace(path string, md meta, spans []span, layers map[string]float64) error {
	b, err := json.MarshalIndent(struct {
		Meta   meta               `json:"meta"`
		Layers map[string]float64 `json:"layers"`
		Spans  []span             `json:"spans"`
	}{md, layers, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
