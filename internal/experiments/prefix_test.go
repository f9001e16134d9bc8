package experiments

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pandemic"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// TestSharedPrefixSweepMatchesUnshared is the copy-on-divergence
// correctness gate: the registry sweep must reproduce every scenario run
// alone, with no prefix shared — the committed fixtures, which -update
// writes from RunStreamingOn — bit for bit (JSON float64 encoding is
// shortest-round-trip, so any drift in any headline fails), while
// actually forking: the expected fork tree and the
// sweep.prefix_days_saved / sweep.checkpoint_forks counters are pinned.
// TestGoldenHeadlines checks the same sweep; TestParallelSweepMatchesSerial
// runs the registry at Parallel 1 and against live references.
func TestSharedPrefixSweepMatchesUnshared(t *testing.T) {
	runs, reg := registrySweep(t)

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

	for _, run := range runs {
		assertGolden(t, run)
		f, forked := wantFork[run.Name]
		if forked != (run.ForkedFrom != "") || (forked && (run.ForkedFrom != f.From || run.PrefixDays != f.Days)) {
			t.Errorf("%s: forked from %q after %d days, want %q after %d days",
				run.Name, run.ForkedFrom, run.PrefixDays, f.From, f.Days)
		}
	}
	if got := reg.Counter("sweep.checkpoint_forks").Value(); got != int64(len(wantFork)) {
		t.Errorf("sweep.checkpoint_forks = %d, want %d", got, len(wantFork))
	}
	if got := reg.Counter("sweep.prefix_days_saved").Value(); got != int64(wantSaved) {
		t.Errorf("sweep.prefix_days_saved = %d, want %d", got, wantSaved)
	}
}

// checkpointConfig is the scale of the checkpoint tests: small, but
// full-pipeline (KPI engine and Inner-London cohort included).
func checkpointConfig() Config {
	return Config{Seed: 42, TargetUsers: 300, PopPerTower: 40_000, TopN: core.DefaultTopN}
}

// runFromCheckpoint resumes one scenario from start (nil = day 0) and,
// when snapAt > 0, returns its checkpoint at that study day; with stop
// the run ends right after that capture. Any other run error fails the
// test.
func runFromCheckpoint(t *testing.T, w *World, cfg Config, sc SweepScenario, start *Checkpoint, snapAt int, stop bool) (SweepRun, *Checkpoint) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Checkpoint
	publish := func(sd int, r *Results) {
		if snapAt > 0 && sd == snapAt {
			snap = captureCheckpoint(r, sd)
			if stop {
				cancel()
			}
		}
	}
	run := runPrefixScenario(ctx, w, cfg, nil, sc, 0, w.Homes(nil), start, publish, nil, &scratchPool{})
	if run.Err != nil && !(stop && snap != nil) {
		t.Fatalf("run %s: %v", sc.Name, run.Err)
	}
	return run, snap
}

// TestSweepForksTwoChildrenAtOneDay covers a fork day with two
// checkpoint children: three activity timelines agree through study day
// 29 and pairwise differ from day 30, so the first hosts both others
// from one capture at day 30. Each child must continue from a
// checkpoint of its own — children handed one shared checkpoint would
// fold both suffixes into the same analyzers — so the sweep must match
// each scenario run alone bit for bit at Parallel 1 and 2.
func TestSweepForksTwoChildrenAtOneDay(t *testing.T) {
	const forkDay = 30
	var scens []SweepScenario
	for _, level := range []float64{0.5, 0.7, 0.9} {
		s, err := pandemic.NewBuilder().Activity(forkDay-1, 1).Activity(forkDay, level).Build()
		if err != nil {
			t.Fatal(err)
		}
		scens = append(scens, SweepScenario{Name: fmt.Sprintf("activity-%.1f", level), Scenario: s})
	}
	plan := planPrefix(scens)
	for _, c := range []int{1, 2} {
		if plan.parent[c] != 0 || plan.forkDay[c] != forkDay || plan.rider[c] {
			t.Fatalf("want %s forked from %s at day %d; parent %v forkDay %v rider %v",
				scens[c].Name, scens[0].Name, forkDay, plan.parent, plan.forkDay, plan.rider)
		}
	}
	cfg := checkpointConfig()
	cfg.SkipKPI = true // a shared checkpoint shows in the mobility folds already
	w := NewWorld(cfg)
	ref := referenceRuns(t, cfg, scens)
	for _, parallel := range []int{1, 2} {
		runs := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: parallel})
		for _, c := range []int{1, 2} {
			if runs[c].ForkedFrom != scens[0].Name || runs[c].PrefixDays != forkDay {
				t.Errorf("parallel=%d %s: forked from %q after %d days, want %q after %d",
					parallel, runs[c].Name, runs[c].ForkedFrom, runs[c].PrefixDays, scens[0].Name, forkDay)
			}
		}
		assertSweepRunsEqual(t, ref, runs)
	}
}

// TestCheckpointForkNoAliasing advances a fork to the end of the study
// window — under a different scenario — and requires the original
// checkpoint to be untouched (identical to a second run's capture of
// the same day, which stops there) and still usable: resuming it must
// still reproduce the uninterrupted run.
func TestCheckpointForkNoAliasing(t *testing.T) {
	cfg := checkpointConfig()
	w := NewWorld(cfg)
	base := *loadScenario(t, scenario.DefaultCovid)
	other := *loadScenario(t, scenario.NoPandemic)

	full, ck := runFromCheckpoint(t, w, cfg, base, nil, 20, false)
	// The reference snapshot is an independent capture of the same day
	// boundary, not ck.Fork(): a fork taken here would share whatever a
	// faulty Fork shares, and so change along with ck. Fresh forks carry
	// no per-call scratch, so it compares deeply equal to a fork of an
	// untouched ck. Only the capture is read, so that run stops there.
	_, before := runFromCheckpoint(t, w, cfg, base, nil, 20, true)

	forked, _ := runFromCheckpoint(t, w, cfg, other, ck.Fork(), 0, false)

	if after := ck.Fork(); !reflect.DeepEqual(before, after) {
		t.Error("advancing a fork mutated the original checkpoint")
	}
	if slices.Equal(forked.Headlines, full.Headlines) {
		t.Error("fork advanced under a different scenario reproduced the base scenario exactly; fork is not independent")
	}
	resumed, _ := runFromCheckpoint(t, w, cfg, base, ck, 0, false)
	if got, want := resumed.Headlines, full.Headlines; !slices.Equal(got, want) {
		t.Errorf("original checkpoint no longer reproduces the uninterrupted run after its fork was advanced\n got: %v\nwant: %v", got, want)
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
		SweepOptions{Parallel: 2, OnRun: func(i int, run SweepRun) {
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
// host's and each rider's headlines match that scenario's reference run
// bit for bit (a host that read a rider's records, or an engine left
// bound to a rider, would drift).
func TestRidersFoldOnHostEngine(t *testing.T) {
	cfg := streamingTestConfig() // busy enough cells that KPI headlines see the scenario
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.DeepOffload, scenario.VoiceSurge)
	plan := planPrefix(scens)
	var riders []rider
	for _, c := range plan.children[0] {
		if plan.rider[c] {
			riders = append(riders, rider{idx: c, forkDay: plan.forkDay[c], sc: scens[c]})
		}
	}
	if len(riders) != 2 || len(plan.children[0]) != 2 {
		t.Fatalf("want deep-offload and voice-surge riding default-covid; children %v rider %v", plan.children, plan.rider)
	}
	w := NewWorld(cfg)
	pool := &scratchPool{}
	run := runPrefixScenario(context.Background(), w, cfg, nil, scens[0], 0, w.Homes(nil), nil, nil, riders, pool)
	if run.Err != nil {
		t.Fatalf("host run: %v", run.Err)
	}
	if n := len(pool.free); n != 1 || pool.free[0].eng == nil {
		t.Fatalf("pool holds %d day scratches after the host run, want 1 carrying an engine", n)
	}
	runs := map[int]SweepRun{0: run}
	for k := range riders {
		rr := riders[k].settle(run.Results)
		if rr.Err != nil {
			t.Fatalf("rider %s: %v", rr.Name, rr.Err)
		}
		if rr.Results.Dataset.Engine != nil {
			t.Errorf("rider %s holds an engine of its own", rr.Name)
		}
		runs[riders[k].idx] = rr
	}
	for i, r := range runs {
		if want := Headlines(reference(t, cfg, scens[i])); !slices.Equal(r.Headlines, want) {
			t.Errorf("%s diverges from its reference run\n got: %v\nwant: %v", r.Name, r.Headlines, want)
		}
	}
}
