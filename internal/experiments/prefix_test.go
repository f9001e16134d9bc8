package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stream"
)

func headlinesJSON(t *testing.T, hs []Headline) string {
	t.Helper()
	data, err := json.Marshal(hs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// registrySweep loads every registry scenario, in registry order.
func registrySweep(t *testing.T) []SweepScenario {
	t.Helper()
	var scens []SweepScenario
	for _, name := range scenario.Names() {
		scens = append(scens, *loadScenario(t, name))
	}
	return scens
}

// TestSharedPrefixSweepMatchesUnshared is the copy-on-divergence
// correctness gate: the SharePrefix executor — serial and parallel —
// must reproduce the unshared serial sweep bit for bit over the whole
// registry (JSON float64 encoding is shortest-round-trip, so any drift
// in any headline fails), while actually forking: the expected fork
// tree and the sweep.prefix_days_saved / sweep.checkpoint_forks
// counters are pinned.
func TestSharedPrefixSweepMatchesUnshared(t *testing.T) {
	cfg := goldenConfig()
	scens := registrySweep(t)
	w := NewWorld(cfg)
	ref := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: 2})

	// The expected fork tree over the registry order: each scenario's
	// parent and the study days it skips (pandemic.Scenario.DivergenceFrom
	// pairwise values are pinned in internal/scenario's divergence tests;
	// default-covid and early-lockdown run standalone from day 0).
	wantFork := map[string]struct {
		From string
		Days int
	}{
		scenario.NoPandemic:   {scenario.DefaultCovid, 1},
		scenario.LateLockdown: {scenario.NoPandemic, 15},
		scenario.SecondWave:   {scenario.DefaultCovid, 42},
		scenario.DeepOffload:  {scenario.DefaultCovid, 1},
		scenario.VoiceSurge:   {scenario.DefaultCovid, 7},
	}
	wantSaved := 0
	for _, f := range wantFork {
		wantSaved += f.Days
	}

	for _, parallel := range []int{1, 4} {
		reg := obs.New()
		runs, err := RunSweepParallelOpts(context.Background(), w, cfg,
			stream.Config{Workers: 1, Metrics: reg}, scens,
			SweepOptions{Parallel: parallel, SharePrefix: true})
		if err != nil {
			t.Fatalf("shared sweep (parallel=%d): %v", parallel, err)
		}
		for i := range runs {
			if runs[i].Name != ref[i].Name {
				t.Fatalf("parallel=%d run %d: name %q, want %q", parallel, i, runs[i].Name, ref[i].Name)
			}
			got, want := headlinesJSON(t, runs[i].Headlines), headlinesJSON(t, ref[i].Headlines)
			if got != want {
				t.Errorf("parallel=%d %s: shared-prefix headlines diverge from unshared sweep\n got: %s\nwant: %s",
					parallel, runs[i].Name, got, want)
			}
			f, forked := wantFork[runs[i].Name]
			if forked != (runs[i].ForkedFrom != "") || (forked && (runs[i].ForkedFrom != f.From || runs[i].PrefixDays != f.Days)) {
				t.Errorf("parallel=%d %s: forked from %q after %d days, want %q after %d days",
					parallel, runs[i].Name, runs[i].ForkedFrom, runs[i].PrefixDays, f.From, f.Days)
			}
		}
		if got := reg.Counter("sweep.checkpoint_forks").Value(); got != int64(len(wantFork)) {
			t.Errorf("parallel=%d: sweep.checkpoint_forks = %d, want %d", parallel, got, len(wantFork))
		}
		if got := reg.Counter("sweep.prefix_days_saved").Value(); got != int64(wantSaved) {
			t.Errorf("parallel=%d: sweep.prefix_days_saved = %d, want %d", parallel, got, wantSaved)
		}
	}
}

// checkpointConfig is the scale of the checkpoint tests: small, but
// full-pipeline (KPI engine and Inner-London cohort included).
func checkpointConfig() Config {
	return Config{Seed: 42, TargetUsers: 300, PopPerTower: 40_000, TopN: core.DefaultTopN}
}

// runFromCheckpoint resumes one scenario from start (nil = day 0),
// optionally checkpointing at the snap days, and fails the test on any
// run error.
func runFromCheckpoint(t *testing.T, w *World, cfg Config, sc SweepScenario, start *Checkpoint, snapAt map[int]bool) (SweepRun, map[int]*Checkpoint) {
	t.Helper()
	snaps := make(map[int]*Checkpoint, len(snapAt))
	publish := func(sd int, ck *Checkpoint) { snaps[sd] = ck }
	run, _ := runPrefixScenario(context.Background(), w, cfg, nil, sc, 0, w.Homes(nil), start, snapAt, publish, nil, &enginePool{})
	if run.Err != nil {
		t.Fatalf("run %s: %v", sc.Name, run.Err)
	}
	return run, snaps
}

// TestCheckpointForkNoAliasing advances a fork to the end of the study
// window — under a different scenario — and requires the original
// checkpoint to be untouched (snapshot-identical) and still usable:
// resuming it must still reproduce the uninterrupted run.
func TestCheckpointForkNoAliasing(t *testing.T) {
	cfg := checkpointConfig()
	w := NewWorld(cfg)
	base := *loadScenario(t, scenario.DefaultCovid)
	other := *loadScenario(t, scenario.NoPandemic)

	full, snaps := runFromCheckpoint(t, w, cfg, base, nil, map[int]bool{20: true})
	ck := snaps[20]
	// The reference snapshot is an independent capture of the same day
	// boundary, not ck.Fork(): a fork taken here would share whatever a
	// faulty Fork shares, and so change along with ck. Fresh forks carry
	// no per-call scratch, so it compares deeply equal to a fork of an
	// untouched ck.
	_, again := runFromCheckpoint(t, w, cfg, base, nil, map[int]bool{20: true})
	before := again[20]

	forked, _ := runFromCheckpoint(t, w, cfg, other, ck.Fork(), nil)

	if after := ck.Fork(); !reflect.DeepEqual(before, after) {
		t.Error("advancing a fork mutated the original checkpoint")
	}
	if got, want := headlinesJSON(t, forked.Headlines), headlinesJSON(t, full.Headlines); got == want {
		t.Error("fork advanced under a different scenario reproduced the base scenario exactly; fork is not independent")
	}
	resumed, _ := runFromCheckpoint(t, w, cfg, base, ck, nil)
	if got, want := headlinesJSON(t, resumed.Headlines), headlinesJSON(t, full.Headlines); got != want {
		t.Errorf("original checkpoint no longer reproduces the uninterrupted run after its fork was advanced\n got: %s\nwant: %s", got, want)
	}
}

// TestSweepChildStartsAtCapture pins fork at capture: a child run is
// queued when its parent captures the checkpoint it forks from, not
// when the parent's run returns. no-pandemic forks from default-covid
// after study day 1 and fails at its start (an injected error), so its
// OnRun call marks when it started; voice-surge rides default-covid
// from day 7, and a delay armed on its attach holds the parent there,
// so the parent is still running when the child starts.
func TestSweepChildStartsAtCapture(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	plan := planPrefix(scens)
	if plan.parent[1] != 0 || plan.forkDay[1] != 1 || !plan.rider[2] || plan.parent[2] != 0 || plan.forkDay[2] <= 1 {
		t.Fatalf("unexpected fork tree: parent %v forkDay %v rider %v", plan.parent, plan.forkDay, plan.rider)
	}
	w := NewWorld(cfg)
	fi := fault.New(
		fault.Rule{Site: fault.SweepRun, Kind: fault.KindError, Key: 1},
		fault.Rule{Site: fault.SweepRun, Kind: fault.KindDelay, Key: 2, Delay: time.Second},
	)
	var parentDone, childBeforeParent bool
	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1, Fault: fi}, scens,
		SweepOptions{Parallel: 2, SharePrefix: true, OnRun: func(i int, run SweepRun) {
			switch i {
			case 0:
				parentDone = true
			case 1:
				childBeforeParent = !parentDone
			}
		}})
	if !fault.IsInjected(err) || !fault.IsInjected(runs[1].Err) {
		t.Fatalf("want the child's injected error, got %v", err)
	}
	if runs[0].Err != nil || runs[2].Err != nil {
		t.Fatalf("parent or rider failed: %v, %v", runs[0].Err, runs[2].Err)
	}
	if !childBeforeParent {
		t.Error("the child started only after its parent's run returned; want it queued at the parent's checkpoint capture")
	}
}

// TestRidersFoldOnHostEngine pins the rider stack: default-covid hosts
// deep-offload and voice-surge, and both fold the host's traces on the
// host's own engine and record buffer. Run on an empty pool, the host
// leaves exactly one day scratch behind, carrying the one engine the
// three scenarios shared; no rider result holds an engine; and the
// host's and each rider's headlines match a standalone run of that
// scenario bit for bit (a host that read a rider's records, or an engine
// left bound to a rider, would drift).
func TestRidersFoldOnHostEngine(t *testing.T) {
	cfg := streamingTestConfig() // busy enough cells that KPI headlines see the scenario
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.DeepOffload, scenario.VoiceSurge)
	plan := planPrefix(scens)
	if len(plan.riders[0]) != 2 || len(plan.children[0]) != 0 {
		t.Fatalf("want deep-offload and voice-surge riding default-covid; riders %v children %v", plan.riders, plan.children)
	}
	riders := make([]riderSpec, 0, 2)
	for _, ri := range plan.riders[0] {
		riders = append(riders, riderSpec{idx: ri, forkDay: plan.forkDay[ri], sc: scens[ri]})
	}
	w := NewWorld(cfg)
	pool := &enginePool{}
	run, riderRuns := runPrefixScenario(context.Background(), w, cfg, nil, scens[0], 0, w.Homes(nil), nil, nil, nil, riders, pool)
	if run.Err != nil {
		t.Fatalf("host run: %v", run.Err)
	}
	if n := len(pool.days.free); n != 1 || pool.days.free[0].eng == nil {
		t.Fatalf("pool holds %d day scratches after the host run, want 1 carrying an engine", n)
	}
	if len(riderRuns) != len(riders) {
		t.Fatalf("host settled %d riders, want %d", len(riderRuns), len(riders))
	}
	runs := map[int]SweepRun{0: run}
	for _, rr := range riderRuns {
		if rr.run.Err != nil {
			t.Fatalf("rider %s: %v", rr.run.Name, rr.run.Err)
		}
		if rr.run.Results.Dataset.Engine != nil {
			t.Errorf("rider %s holds an engine of its own", rr.run.Name)
		}
		runs[rr.idx] = rr.run
	}
	for i, r := range runs {
		alone, _ := runFromCheckpoint(t, w, cfg, scens[i], nil, nil)
		if got, want := headlinesJSON(t, r.Headlines), headlinesJSON(t, alone.Headlines); got != want {
			t.Errorf("%s diverges from its standalone run\n got: %s\nwant: %s", r.Name, got, want)
		}
	}
}
