package stream

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mobsim"
	"repro/internal/timegrid"
)

// settleGoroutines polls until the goroutine count returns to at most
// base (plus a small slack for runtime background goroutines), failing
// the test if it never does — the no-dependency stand-in for a leak
// checker.
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

// countingRecycler owns one synthetic batch and counts its releases:
// the first into released, every further one into double.
type countingRecycler struct {
	fired            atomic.Bool
	released, double *atomic.Int64
}

func (c *countingRecycler) Recycle(uint64) {
	if !c.fired.CompareAndSwap(false, true) {
		c.double.Add(1)
		return
	}
	c.released.Add(1)
}

// countingBatches builds synthetic batches whose owners count releases,
// so tests can pin "every batch released exactly once".
func countingBatches(days, users int) ([]DayBatch, *atomic.Int64, *atomic.Int64) {
	batches := syntheticBatches(days, users)
	released := &atomic.Int64{}
	double := &atomic.Int64{}
	for d := range batches {
		batches[d].Owner = &countingRecycler{released: released, double: double}
	}
	return batches, released, double
}

// TestEngineShardPanicIsTyped injects a panic into a shard task and
// asserts the run fails with a *WorkerPanic carrying the stage, shard
// context and day — and that the engine keeps draining batches cleanly
// (the failed day's batch is still released by Run's caller contract).
func TestEngineShardPanicIsTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	const days, users = 5, 40
	batches, released, double := countingBatches(days, users)

	fi := fault.New(fault.Rule{Site: fault.ShardTask, Kind: fault.KindPanic, Key: 2})
	e := NewEngine(Config{Workers: 3, Shards: 2, Fault: fi})
	e.AddTraceSharder(newRecordingSharder(2))
	err := e.Run(context.Background(), NewSliceSource(batches))
	if err == nil {
		t.Fatal("want error from injected shard panic")
	}
	var wp *WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanic, got %T: %v", err, err)
	}
	if wp.Stage != "shard" || wp.Day != 2 {
		t.Errorf("panic context: stage=%q day=%d, want shard/2", wp.Stage, wp.Day)
	}
	if len(wp.Stack) == 0 {
		t.Error("WorkerPanic carries no stack")
	}
	// Days 0..2 were pulled from the source and must all be released —
	// the failed day included.
	if got := released.Load(); got != 3 {
		t.Errorf("released %d batches, want 3 (days 0..2)", got)
	}
	if double.Load() != 0 {
		t.Errorf("%d double releases", double.Load())
	}
	settleGoroutines(t, base)
}

// TestEngineMergeFaultFailsDay injects an error at the merge site and
// asserts it surfaces typed and unwrapped.
func TestEngineMergeFaultFailsDay(t *testing.T) {
	batches, released, _ := countingBatches(4, 10)
	fi := fault.New(fault.Rule{Site: fault.MergeDay, Kind: fault.KindError, Key: 1})
	e := NewEngine(Config{Workers: 2, Shards: 2, Fault: fi})
	err := e.Run(context.Background(), NewSliceSource(batches))
	if !fault.IsInjected(err) {
		t.Fatalf("want injected fault error, got %v", err)
	}
	var fe *fault.Error
	errors.As(err, &fe)
	if fe.Site != fault.MergeDay || fe.Key != 1 {
		t.Errorf("fault context: %+v", fe)
	}
	if released.Load() != 2 {
		t.Errorf("released %d batches, want 2 (days 0..1)", released.Load())
	}
}

// TestEngineCancelledBeforeRun pins the ≤1-day cancellation bound at
// its edge: a context cancelled before Run starts consumes nothing.
func TestEngineCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batches, released, _ := countingBatches(3, 10)
	e := NewEngine(Config{Workers: 2, Shards: 2})
	err := e.Run(ctx, NewSliceSource(batches))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if released.Load() != 0 {
		t.Errorf("cancelled-before-start run released %d batches, want 0", released.Load())
	}
}

// cancellingConsumer cancels a context when it has consumed day N.
type cancellingConsumer struct {
	cancel context.CancelFunc
	onDay  timegrid.SimDay
	seen   []timegrid.SimDay
}

func (c *cancellingConsumer) ConsumeDay(day timegrid.SimDay, _ []mobsim.DayTrace) {
	c.seen = append(c.seen, day)
	if day == c.onDay {
		c.cancel()
	}
}

// TestEngineCancelMidRun cancels from inside the merge stage of day 1
// and asserts the engine stops within one further day of work and
// returns ctx.Err().
func TestEngineCancelMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches, released, double := countingBatches(10, 10)
	e := NewEngine(Config{Workers: 2, Shards: 2})
	cc := &cancellingConsumer{cancel: cancel, onDay: 1}
	e.AddTraceConsumer(cc)
	err := e.Run(ctx, NewSliceSource(batches))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := len(cc.seen); n != 2 {
		t.Errorf("consumed %d days after cancel at day 1, want 2 (the ≤1-day bound)", n)
	}
	if released.Load() != 2 || double.Load() != 0 {
		t.Errorf("released=%d double=%d, want 2/0", released.Load(), double.Load())
	}
	settleGoroutines(t, base)
}

// TestPoolRejectsDoubleRelease pins the generation guard: releasing one
// batch twice reports instead of corrupting the free list.
func TestPoolRejectsDoubleRelease(t *testing.T) {
	ledger0 := DoubleReleases()
	p := NewBufferPool(2)
	r := p.Draw()
	b := r.Batch()
	b.Release()
	if p.Rejected() != 0 {
		t.Fatalf("first release rejected")
	}
	// A copy of the batch value, released again: Owner was nilled on the
	// original, so simulate the hostile case — a second release through a
	// stale copy holding the old generation.
	stale := DayBatch{Owner: r, Gen: b.Gen}
	stale.Release()
	if p.Rejected() != 1 {
		t.Fatalf("double release not rejected: Rejected()=%d", p.Rejected())
	}
	if DoubleReleases() != ledger0+1 {
		t.Fatalf("process ledger not bumped: %d -> %d", ledger0, DoubleReleases())
	}
	// The store must be drawable again exactly once — the free list holds
	// one copy, not two.
	r1, r2 := p.Draw(), p.Draw()
	if r1 == r2 {
		t.Fatal("free list corrupted: same store issued twice")
	}
}

// TestPoolRejectsStaleGeneration releases with a generation from an
// earlier checkout after the store was re-issued: the store stays owned
// by the new checkout.
func TestPoolRejectsStaleGeneration(t *testing.T) {
	p := NewBufferPool(2)
	r := p.Draw()
	first := r.Batch()
	oldGen := first.Gen
	first.Release() // back to the free list
	r2 := p.Draw()  // re-issued, fresh generation
	if r2 != r {
		t.Fatal("expected the pooled store back")
	}
	staleCopy := DayBatch{Owner: r, Gen: oldGen}
	staleCopy.Release() // stale: must be refused
	if p.Rejected() != 1 {
		t.Fatalf("stale release not rejected: Rejected()=%d", p.Rejected())
	}
	// The current checkout must still release fine.
	cur := r2.Batch()
	cur.Release()
	if p.Rejected() != 1 {
		t.Fatalf("current-generation release was rejected")
	}
}

// TestPrefetchStopReleasesWindow stops a prefetching source mid-stream
// and asserts every decoded-but-unconsumed batch is released, nothing
// twice, and the decode goroutine exits.
func TestPrefetchStopReleasesWindow(t *testing.T) {
	base := runtime.NumGoroutine()
	const days = 8
	batches, released, double := countingBatches(days, 4)
	src := Prefetch(NewSliceSource(batches), 3)

	b, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	held := b // consumer owns this one
	stopSource(src)
	held.Release()

	// Everything decoded must end up released exactly once; nothing can
	// be released twice regardless of how far the decoder got.
	deadline := time.Now().Add(2 * time.Second)
	for released.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if double.Load() != 0 {
		t.Fatalf("%d double releases after Stop", double.Load())
	}
	if released.Load() > int64(days) {
		t.Fatalf("released %d > produced %d", released.Load(), days)
	}
	settleGoroutines(t, base)
}

// TestPrefetchPropagatesSourceError wraps an erroring source and
// asserts the error (not io.EOF) comes through after the buffered
// batches.
func TestPrefetchPropagatesSourceError(t *testing.T) {
	batches, _, _ := countingBatches(2, 4)
	inj := fault.New(fault.Rule{Site: fault.FeedRead, Kind: fault.KindError, Key: -1})
	src := Prefetch(&faultingSource{src: NewSliceSource(batches), fi: inj, after: 2}, 2)
	var err error
	for i := 0; i < 4; i++ {
		var b DayBatch
		b, err = src.Next()
		if err != nil {
			break
		}
		b.Release()
	}
	if !fault.IsInjected(err) {
		t.Fatalf("want injected error through Prefetch, got %v", err)
	}
}

// faultingSource passes through its inner source for the first `after`
// batches, then fires an injector on every later Next.
type faultingSource struct {
	src   Source
	fi    *fault.Injector
	after int
	n     int
}

func (f *faultingSource) Next() (DayBatch, error) {
	if f.n >= f.after {
		if err := f.fi.Fire(fault.FeedRead, int64(f.n)); err != nil {
			return DayBatch{}, err
		}
	}
	f.n++
	return f.src.Next()
}

// TestSliceSourceEOF keeps the trivial contract pinned.
func TestSliceSourceEOF(t *testing.T) {
	s := NewSliceSource(nil)
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}
