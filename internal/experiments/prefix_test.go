package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"testing"

	"repro/internal/core"
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
	run, _, snaps := runPrefixScenario(context.Background(), w, cfg, nil, sc, 0, w.Homes(), start, snapAt, nil, &enginePool{})
	if run.Err != nil {
		t.Fatalf("run %s: %v", sc.Name, run.Err)
	}
	return run, snaps
}

// TestCheckpointRoundTrip serializes a mid-run checkpoint through JSON
// and through gob, restores each against the live world, resumes, and
// requires the resumed headlines to be bit-identical to the
// uninterrupted run's.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := checkpointConfig()
	w := NewWorld(cfg)
	sc := *loadScenario(t, scenario.DefaultCovid)

	full, snaps := runFromCheckpoint(t, w, cfg, sc, nil, map[int]bool{30: true})
	want := headlinesJSON(t, full.Headlines)
	ck := snaps[30]
	if ck == nil {
		t.Fatal("no checkpoint captured at day 30")
	}

	restore := func(t *testing.T, st CheckpointState) {
		t.Helper()
		rck, err := RestoreCheckpoint(w, st)
		if err != nil {
			t.Fatal(err)
		}
		resumed, _ := runFromCheckpoint(t, w, cfg, sc, rck, nil)
		if got := headlinesJSON(t, resumed.Headlines); got != want {
			t.Errorf("resumed headlines diverge from uninterrupted run\n got: %s\nwant: %s", got, want)
		}
	}

	t.Run("json", func(t *testing.T) {
		data, err := json.Marshal(ck.State())
		if err != nil {
			t.Fatal(err)
		}
		var st CheckpointState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		restore(t, st)
	})

	t.Run("gob", func(t *testing.T) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck.State()); err != nil {
			t.Fatal(err)
		}
		var st CheckpointState
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			t.Fatal(err)
		}
		restore(t, st)
	})

	t.Run("rejects-mismatched-world", func(t *testing.T) {
		st := ck.State()
		st.Seed++
		if _, err := RestoreCheckpoint(w, st); err == nil {
			t.Error("RestoreCheckpoint accepted a checkpoint from a different seed")
		}
		st = ck.State()
		st.V++
		if _, err := RestoreCheckpoint(w, st); err == nil {
			t.Error("RestoreCheckpoint accepted an unknown version")
		}
	})
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
	before, err := json.Marshal(ck.State())
	if err != nil {
		t.Fatal(err)
	}

	forked, _ := runFromCheckpoint(t, w, cfg, other, ck.Fork(), nil)

	after, err := json.Marshal(ck.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
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
