// Command mnosweep runs several behavioural scenarios over one shared
// world — the census model, radio topology and synthesized population
// are built exactly once — and prints a headline comparison table, one
// column per scenario. Each scenario runs the serial study-window day
// loop over the shared February home detection, so a sweep of N
// scenarios costs one world build plus at most N study passes.
//
// Scenario sets are comma-separated registry names and/or JSON spec
// files (the SCENARIOS.md schema); "all" expands to every registry
// built-in.
//
// The sweep runs copy-on-divergence: the scenarios are grouped by the
// first day their behaviour can differ (pandemic.Scenario.DivergenceFrom),
// each shared prefix is simulated once, checkpointed at the fork day and
// forked per scenario: a forked run starts as soon as its parent has
// captured the checkpoint, while the parent goes on. Output is
// bit-identical to running each scenario alone; the journal records
// which runs were forked and how many days they skipped. See
// PERFORMANCE.md, "Copy-on-divergence sweeps".
//
// -parallel N executes up to N scenario runs concurrently
// (experiments.RunSweepParallelOpts); it defaults to GOMAXPROCS, one
// run per core. Output is bit-identical at every N, re-sequenced to the
// input order. It is the only parallelism axis: every run is one serial
// day loop.
//
// -baseline NAME additionally prints a differential table — every
// scenario's per-day KPI and mobility series against the named run:
// absolute and percent mean deltas plus trough/peak day shifts.
//
// Reliability (see RELIABILITY.md): scenario runs fail independently —
// a poisoned run is reported and the table is printed for the rest
// (exit 1). SIGINT/SIGTERM cancels the sweep, prints the partial table
// for the runs that finished and exits 130. -journal FILE records each
// completed run as it lands; -resume skips those runs on restart, so an
// interrupted or partially-failed sweep continues instead of starting
// over, and the stitched final table is byte-identical to an
// uninterrupted sweep. -fault arms the deterministic fault harness
// (internal/fault; site sweep.run is keyed by run index). Exit codes:
// 0 success, 1 runtime failure, 2 bad usage, 130 interrupted.
//
// Observability: -metrics ADDR serves the live metric registry and
// net/http/pprof while the sweep is in flight, -metrics-out FILE writes
// the end-of-run snapshot (obs/v1 JSON, diffable with `benchdiff -obs`);
// either flag also prints the human metric table at exit. See
// PERFORMANCE.md, "Observability".
//
// Usage:
//
//	mnosweep [-list] [-scenarios NAMES|all] [-users N] [-seed S] [-nokpi]
//	         [-parallel P] [-baseline NAME] [-journal FILE] [-resume]
//	         [-fault SPEC] [-metrics ADDR] [-metrics-out FILE]
//	         [-cpuprofile F] [-memprofile F]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stream"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list the built-in scenario registry and exit")
		names       = flag.String("scenarios", "default-covid,no-pandemic,early-lockdown", "comma-separated registry names and/or JSON spec files; \"all\" runs every built-in")
		users       = flag.Int("users", 4000, "synthetic native smartphone users")
		seed        = flag.Uint64("seed", 42, "master random seed (shared by every scenario: paired draws)")
		noKPI       = flag.Bool("nokpi", false, "skip the traffic engine (mobility headlines only, ~3× faster)")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent scenario runs, GOMAXPROCS by default (1: serial; output is identical at every count)")
		baseline    = flag.String("baseline", "", "scenario name to difference every other run against (prints the delta table)")
		journalPath = flag.String("journal", "", "record completed runs to this JSON-lines file as they finish")
		resume      = flag.Bool("resume", false, "skip runs already recorded in the -journal file (requires -journal)")
		faultSpec   = flag.String("fault", "", "deterministic fault injection spec: site:kind:key[:delay][,...] (see internal/fault)")
		of          = obs.Flags()
	)
	flag.Parse()

	if *list {
		printRegistry()
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	err := of.Run(func() error {
		return run(ctx, *names, *users, *seed, *noKPI, *parallel, *baseline, *journalPath, *resume, *faultSpec, of.Registry())
	})
	cli.Exit("mnosweep", err)
}

func printRegistry() {
	fmt.Println("built-in scenarios:")
	for _, sp := range scenario.List() {
		fmt.Printf("  %-16s %s\n", sp.Name, sp.Description)
	}
	fmt.Println("\npass -scenarios with any of these and/or paths to JSON spec files (see SCENARIOS.md)")
}

// resolve expands the -scenarios flag into named sweep entries.
func resolve(names string) ([]experiments.SweepScenario, error) {
	var tokens []string
	if names == "all" {
		tokens = scenario.Names()
	} else {
		for _, tok := range strings.Split(names, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				tokens = append(tokens, tok)
			}
		}
	}
	if len(tokens) == 0 {
		return nil, cli.Usagef("no scenarios given")
	}
	out := make([]experiments.SweepScenario, 0, len(tokens))
	for _, tok := range tokens {
		sp, err := scenario.LoadSpec(tok)
		if err != nil {
			return nil, cli.Usagef("%w", err)
		}
		s, err := sp.Scenario()
		if err != nil {
			return nil, cli.Usagef("%w", err)
		}
		label := sp.Name
		if label == "" {
			label = strings.TrimSuffix(filepath.Base(tok), ".json")
		}
		out = append(out, experiments.SweepScenario{Name: label, Scenario: s})
	}
	return out, nil
}

func run(ctx context.Context, names string, users int, seed uint64, noKPI bool, parallel int, baseline, journalPath string, resume bool, faultSpec string, reg *obs.Registry) error {
	scens, err := resolve(names)
	if err != nil {
		return err
	}
	fi, err := fault.ParseSpec(faultSpec)
	if err != nil {
		return cli.Usagef("%w", err)
	}
	if resume && journalPath == "" {
		return cli.Usagef("-resume requires -journal FILE")
	}
	if resume && baseline != "" {
		// The journal records headline statistics, not the per-day
		// series DeltaTable differences, so a resumed sweep cannot
		// rebuild the baseline comparison for its skipped runs.
		return cli.Usagef("-baseline cannot be combined with -resume (the journal keeps headlines, not per-day series)")
	}
	// Validate the baseline before the sweep runs, not after: a typo'd
	// name must not cost a full multi-scenario run only to fail at the
	// delta table.
	if baseline != "" {
		found := false
		labels := make([]string, len(scens))
		for i, sc := range scens {
			labels[i] = sc.Name
			found = found || sc.Name == baseline
		}
		if !found {
			return cli.Usagef("baseline %q is not part of the sweep %v", baseline, labels)
		}
	}
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	cfg.Seed = seed
	cfg.SkipKPI = noKPI
	scfg := stream.Config{Metrics: reg, Fault: fi}

	// Journal bookkeeping: open (or resume) before any work, so a crash
	// at any later point leaves a loadable file behind.
	var (
		jnl  *journal
		done map[string][]experiments.Headline
		opt  = experiments.SweepOptions{Parallel: parallel}
	)
	if journalPath != "" {
		labels := make([]string, len(scens))
		for i, sc := range scens {
			labels[i] = sc.Name
		}
		hdr := journalHeader{V: journalVersion, Kind: "mnosweep-journal",
			Users: users, Seed: seed, NoKPI: noKPI, SharePrefix: true, Scenarios: labels}
		jnl, done, err = openJournal(journalPath, hdr, resume)
		if err != nil {
			return err
		}
		defer jnl.Close()
		opt.OnRun = func(i int, run experiments.SweepRun) {
			if err := jnl.record(run); err != nil {
				fmt.Fprintf(os.Stderr, "mnosweep: journal write failed: %v\n", err)
			}
		}
	}

	// Split the sweep into journaled (skip) and pending (run) entries;
	// without -resume everything is pending.
	var pending []experiments.SweepScenario
	for _, sc := range scens {
		if _, ok := done[sc.Name]; !ok {
			pending = append(pending, sc)
		}
	}

	start := time.Now()
	var runs []experiments.SweepRun
	var sweepErr error
	if len(pending) > 0 {
		world := experiments.NewWorld(cfg)
		fmt.Fprintf(os.Stderr, "world built in %v (%d users); sweeping %d scenarios (parallel %d, %d resumed from journal)\n",
			time.Since(start).Round(time.Millisecond), users, len(pending), parallel, len(scens)-len(pending))
		runs, sweepErr = experiments.RunSweepParallelOpts(ctx, world, cfg, scfg, pending, opt)
	} else {
		fmt.Fprintf(os.Stderr, "all %d scenarios already journaled; reprinting from %s\n", len(scens), journalPath)
	}

	// Stitch journaled and fresh runs back into flag order, then drop
	// failures — the table is printed for whatever completed, and the
	// error (if any) decides the exit code after.
	fresh := make(map[string]experiments.SweepRun, len(runs))
	for _, r := range runs {
		fresh[r.Name] = r
	}
	var ok []experiments.SweepRun
	for _, sc := range scens {
		if h, is := done[sc.Name]; is {
			ok = append(ok, experiments.SweepRun{Name: sc.Name, Headlines: h})
			continue
		}
		if r, is := fresh[sc.Name]; is && r.Err == nil {
			ok = append(ok, r)
		}
	}
	if len(ok) > 0 {
		table := experiments.SweepTable(ok)
		table.Title = fmt.Sprintf("scenario sweep (%d users, seed %d)", users, seed)
		if len(ok) < len(scens) {
			table.Title += fmt.Sprintf(" — partial: %d/%d runs", len(ok), len(scens))
		}
		report.WriteMarkdownTable(os.Stdout, &table)
	}
	if baseline != "" && sweepErr == nil {
		delta, err := experiments.DeltaTable(runs, baseline)
		if err != nil {
			return err
		}
		report.WriteMarkdownTable(os.Stdout, &delta)
	}
	if sweepErr != nil {
		fmt.Fprintf(os.Stderr, "sweep stopped after %v: %d/%d runs completed\n",
			time.Since(start).Round(time.Millisecond), len(ok), len(scens))
		return sweepErr
	}
	fmt.Fprintf(os.Stderr, "sweep done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
