package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// settleGoroutines polls until the goroutine count returns to roughly
// base, failing the test if it never does — the no-dependency leak
// check for every Run/RunSweepParallelOpts exit path.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertNoBufferAbuse pins the pooled-buffer invariants after a chaos
// run: no batch released twice anywhere in the process.
func assertNoBufferAbuse(t *testing.T, before int64) {
	t.Helper()
	if got := stream.DoubleReleases() - before; got != 0 {
		t.Fatalf("%d double releases during run", got)
	}
}

// TestStreamingProduceFaultPropagates injects an error into a SimSource
// producer worker mid-study and asserts the full stack — source, engine,
// runner — surfaces it typed, with no goroutine or buffer leak.
func TestStreamingProduceFaultPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	fi := fault.New(fault.Rule{Site: fault.ProduceDay, Kind: fault.KindError, Key: 40})
	r, err := RunStreamingOn(context.Background(), NewDataset(cfg), stream.Config{Workers: 3, Fault: fi})
	if r != nil {
		t.Fatal("failed run returned results")
	}
	if !fault.IsInjected(err) {
		t.Fatalf("want injected fault error, got %v", err)
	}
	var fe *fault.Error
	errors.As(err, &fe)
	if fe.Site != fault.ProduceDay || fe.Key != 40 {
		t.Errorf("fault context: %+v", fe)
	}
	if fi.Fired(fault.ProduceDay) == 0 {
		t.Error("injector never fired")
	}
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// TestStreamingProducePanicIsTyped injects a panic into a producer
// worker and asserts it comes back as a *stream.WorkerPanic naming the
// produce stage and day, not as a crashed process.
func TestStreamingProducePanicIsTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	fi := fault.New(fault.Rule{Site: fault.ProduceDay, Kind: fault.KindPanic, Key: 45})
	_, err := RunStreamingOn(context.Background(), NewDataset(cfg), stream.Config{Workers: 3, Fault: fi})
	var wp *stream.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("want *stream.WorkerPanic, got %T: %v", err, err)
	}
	if wp.Stage != "produce" || wp.Day != 45 {
		t.Errorf("panic context: stage=%q day=%d, want produce/45", wp.Stage, wp.Day)
	}
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// TestStreamingShardFaultPropagates injects at the engine's shard stage
// through the full runner and asserts typed propagation plus clean
// teardown of the producer workers feeding it.
func TestStreamingShardFaultPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	fi := fault.New(fault.Rule{Site: fault.ShardTask, Kind: fault.KindError, Key: 50})
	_, err := RunStreamingOn(context.Background(), NewDataset(cfg), stream.Config{Workers: 3, Shards: 4, Fault: fi})
	if !fault.IsInjected(err) {
		t.Fatalf("want injected fault error, got %v", err)
	}
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// TestSimSourceCancelDrains cancels a SimSource mid-read and asserts
// Next reports the cancellation (not EOF), Stop is idempotent, and the
// producer pool drains without leaking goroutines or pooled buffers.
func TestSimSourceCancelDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	d := NewDataset(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	src := stream.NewSimSource(ctx, d.Sim, nil, 0, timegrid.SimDay(40), stream.Config{Workers: 4, Buffer: 2})
	for day := timegrid.SimDay(0); day < 5; day++ {
		b, err := src.Next()
		if err != nil {
			t.Fatalf("day %d before cancel: %v", day, err)
		}
		b.Release()
	}
	cancel()
	// Within a bounded number of reads the cancellation must surface.
	var err error
	for i := 0; i < 10; i++ {
		var b stream.DayBatch
		b, err = src.Next()
		if err != nil {
			break
		}
		b.Release()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Next, got %v", err)
	}
	stopSrc(src)
	stopSrc(src) // Stop must be idempotent
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// stopSrc invokes the optional Stopper interface the way the engine
// does.
func stopSrc(src stream.Source) {
	if s, ok := src.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// TestStreamingCancelledContext cancels the runner's context before the
// study completes and asserts ctx.Err() surfaces and everything drains.
func TestStreamingCancelledContext(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunStreamingOn(ctx, NewDataset(cfg), stream.Config{Workers: 3})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil results + context.Canceled, got %v, %v", r, err)
	}
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// TestSweepIsolatesPoisonedRun is the headline robustness contract: a
// sweep where run index 1 panics completes every other scenario, marks
// only the poisoned slot failed with a typed *stream.WorkerPanic, and
// returns a joined error naming the failed run.
func TestSweepIsolatesPoisonedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	dr := stream.DoubleReleases()
	cfg := sweepConfig()
	scens := sweepScenarios(t,
		scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown)
	w := NewWorld(cfg)
	fi := fault.New(fault.Rule{Site: fault.SweepRun, Kind: fault.KindPanic, Key: 1})
	scfg := stream.Config{Workers: 1, Fault: fi}

	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, scfg, scens, SweepOptions{Parallel: 2})
	if err == nil {
		t.Fatal("sweep with a poisoned run returned nil error")
	}
	var wp *stream.WorkerPanic
	if !errors.As(err, &wp) || wp.Stage != "sweep" {
		t.Fatalf("joined error does not carry the sweep panic: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	for i, run := range runs {
		if run.Name != scens[i].Name {
			t.Errorf("run %d out of sequence: %s", i, run.Name)
		}
		if i == 1 {
			if run.Err == nil || run.Results != nil || run.Headlines != nil {
				t.Errorf("poisoned run not isolated: err=%v results=%v", run.Err, run.Results)
			}
			continue
		}
		if run.Err != nil || run.Results == nil || len(run.Headlines) == 0 {
			t.Errorf("healthy run %s failed: %v", run.Name, run.Err)
		}
	}

	// The healthy runs must be bit-identical to their reference runs — a
	// poisoned neighbor cannot perturb them (its engine never returns to
	// the sweep's pool).
	ref := referenceRuns(t, cfg, scens)
	for _, i := range []int{0, 2} {
		if runs[i].Headlines != nil { // a failed run is already reported above
			assertSweepRunsEqual(t, ref[i:i+1], runs[i:i+1])
		}
	}
	settleGoroutines(t, base)
	assertNoBufferAbuse(t, dr)
}

// TestSweepPanicMidStudyKeepsPoolClean panics a host run mid-study:
// voice-surge rides default-covid's day loop, and its armed sweep.run
// panic fires when it attaches at its fork day, inside the host's
// runStudy. The panicked run's day scratch — its buffer and engine —
// must never re-enter the sweep's pool, and on one sweep worker the runs
// after it — drawing from that pool — must still match the streaming
// reference bit for bit.
func TestSweepPanicMidStudyKeepsPoolClean(t *testing.T) {
	cfg := streamingTestConfig()
	scens := sweepScenarios(t,
		scenario.DefaultCovid, scenario.VoiceSurge, scenario.NoPandemic, scenario.EarlyLockdown)
	w := NewWorld(cfg)
	plan := planPrefix(scens)
	if fd := plan.forkDay[1]; !plan.rider[1] || plan.parent[1] != 0 || fd <= 0 || fd >= timegrid.StudyDays {
		t.Fatalf("want voice-surge riding default-covid from mid-study; rider=%v parent=%d forkDay=%d",
			plan.rider[1], plan.parent[1], fd)
	}
	fi := fault.New(fault.Rule{Site: fault.SweepRun, Kind: fault.KindPanic, Key: 1})

	pool := &scratchPool{}
	riders := []rider{{idx: 1, forkDay: plan.forkDay[1], sc: scens[1]}}
	run := runPrefixScenario(context.Background(), w, cfg, fi, scens[0], 0, w.Homes(nil), nil, nil, riders, pool)
	var wp *stream.WorkerPanic
	if !errors.As(run.Err, &wp) || wp.Stage != "sweep" {
		t.Fatalf("host run: want the rider's sweep panic, got %v", run.Err)
	}
	if nb := len(pool.free); nb != 0 {
		t.Fatalf("panicked run returned %d day scratches (and their engines) to the pool", nb)
	}
	if run = runPrefixScenario(context.Background(), w, cfg, fi, scens[2], 2, w.Homes(nil), nil, nil, nil, pool); run.Err != nil {
		t.Fatalf("clean run: %v", run.Err)
	}
	if nb := len(pool.free); nb != 1 || pool.free[0].eng == nil {
		t.Fatalf("clean run left %d day scratches in the pool, want 1 carrying an engine", nb)
	}

	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1, Fault: fi}, scens,
		SweepOptions{Parallel: 1})
	if !errors.As(err, &wp) {
		t.Fatalf("joined error does not carry the sweep panic: %v", err)
	}
	for i := 0; i < 2; i++ {
		if runs[i].Err == nil || runs[i].Results != nil {
			t.Errorf("run %s: want a failed run, got err=%v", runs[i].Name, runs[i].Err)
		}
	}
	assertSweepRunsEqual(t, referenceRuns(t, cfg, scens[2:]), runs[2:])
}

// TestSweepSerialPathIsolatesPoisonedRun pins the same isolation at
// parallel 1, where one worker runs every scenario in turn.
func TestSweepSerialPathIsolatesPoisonedRun(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic)
	w := NewWorld(cfg)
	fi := fault.New(fault.Rule{Site: fault.SweepRun, Kind: fault.KindError, Key: 0})
	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1, Fault: fi}, scens, SweepOptions{Parallel: 1})
	if !fault.IsInjected(err) {
		t.Fatalf("want injected error joined out, got %v", err)
	}
	if runs[0].Err == nil || runs[1].Err != nil {
		t.Fatalf("isolation wrong: run0.Err=%v run1.Err=%v", runs[0].Err, runs[1].Err)
	}
	if len(runs[1].Headlines) == 0 {
		t.Fatal("surviving run has no headlines")
	}
}

// TestSweepCancelledContext cancels before the sweep starts: every slot
// carries ctx.Err(), the joined error reports it, nothing leaks.
func TestSweepCancelledContext(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic)
	w := NewWorld(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := RunSweepParallelOpts(ctx, w, cfg, stream.Config{Workers: 1}, scens, SweepOptions{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, run := range runs {
		if !errors.Is(run.Err, context.Canceled) {
			t.Errorf("run %s: Err = %v, want context.Canceled", run.Name, run.Err)
		}
	}
	settleGoroutines(t, base)
}

// TestSweepOnRunObservesCompletions pins the OnRun hook contract used by
// mnosweep's journal: called once per run with the input index, only
// completed runs have headlines, and calls are serialized (the race
// detector guards that part).
func TestSweepOnRunObservesCompletions(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown)
	w := NewWorld(cfg)
	seen := make(map[int]string)
	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1}, scens,
		SweepOptions{Parallel: 2, OnRun: func(i int, run SweepRun) { seen[i] = run.Name }})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(scens) {
		t.Fatalf("OnRun fired %d times, want %d", len(seen), len(scens))
	}
	for i := range scens {
		if seen[i] != scens[i].Name {
			t.Errorf("OnRun(%d) = %s, want %s", i, seen[i], scens[i].Name)
		}
	}
	_ = runs
}
