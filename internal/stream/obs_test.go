package stream

import (
	"context"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/timegrid"
)

// TestBufferPoolInstrumentedAllocFree pins the hot-path guarantee on the
// recycling path with metrics enabled: a warm get/recycle cycle on an
// instrumented pool performs zero heap allocations, and the hit/miss
// counters account for every draw.
func TestBufferPoolInstrumentedAllocFree(t *testing.T) {
	reg := obs.New()
	p := NewBufferPool(2).Instrument(reg)
	warm := p.Draw().Batch() // first draw allocates the store (a miss)
	warm.Release()
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Draw().Batch()
		b.Release()
	})
	if allocs > 0 {
		t.Errorf("instrumented pool cycle allocates %.1f per op, want 0", allocs)
	}
	s := reg.Snapshot()
	hits, misses := s.Counters["stream.pool.hits"], s.Counters["stream.pool.misses"]
	if misses < 1 {
		t.Errorf("stream.pool.misses = %d, want >= 1 (the cold draw)", misses)
	}
	if hits < 100 {
		t.Errorf("stream.pool.hits = %d, want >= 100 (the warm cycles)", hits)
	}
}

// syntheticBatchesWithVisits is syntheticBatches with v zero-valued
// visits per trace, so the engine's per-shard visit tally has something
// to count.
func syntheticBatchesWithVisits(days, users, v int) []DayBatch {
	batches := syntheticBatches(days, users)
	for d := range batches {
		for u := range batches[d].Traces {
			batches[d].Traces[u].Visits = make([]mobsim.Visit, v)
		}
	}
	return batches
}

// TestEngineMetrics runs the engine with metrics enabled and checks the
// accounting: day counter equals days run, per-shard trace/visit tallies
// sum to the input totals, both stage histograms saw every day — and the
// sharded consumer observes exactly what it would without metrics.
func TestEngineMetrics(t *testing.T) {
	const days, users, shards, visits = 4, 120, 3, 5

	plain := newRecordingSharder(shards)
	e := NewEngine(Config{Workers: 2, Shards: shards})
	e.AddTraceSharder(plain)
	if err := e.Run(context.Background(), NewSliceSource(syntheticBatchesWithVisits(days, users, visits))); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	rec := newRecordingSharder(shards)
	ie := NewEngine(Config{Workers: 2, Shards: shards, Metrics: reg})
	ie.AddTraceSharder(rec)
	if err := ie.Run(context.Background(), NewSliceSource(syntheticBatchesWithVisits(days, users, visits))); err != nil {
		t.Fatal(err)
	}

	// Instrumentation observes, never perturbs: identical fan-out.
	for day := timegrid.SimDay(0); day < days; day++ {
		for s := 0; s < shards; s++ {
			a, b := plain.perDay[day][s], rec.perDay[day][s]
			if len(a) != len(b) {
				t.Fatalf("day %d shard %d: %d vs %d users with metrics on", day, s, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("day %d shard %d: order changed with metrics on", day, s)
				}
			}
		}
	}

	s := reg.Snapshot()
	if got := s.Counters["stream.engine.days"]; got != days {
		t.Errorf("stream.engine.days = %d, want %d", got, days)
	}
	var traceSum, visitSum int64
	for i := 0; i < shards; i++ {
		name := []string{"stream.shard.00", "stream.shard.01", "stream.shard.02"}[i]
		tr, ok := s.Counters[name+".traces"]
		if !ok {
			t.Fatalf("missing %s.traces in %v", name, s.Counters)
		}
		traceSum += tr
		visitSum += s.Counters[name+".visits"]
	}
	if traceSum != days*users {
		t.Errorf("per-shard traces sum to %d, want %d", traceSum, days*users)
	}
	if visitSum != days*users*visits {
		t.Errorf("per-shard visits sum to %d, want %d", visitSum, days*users*visits)
	}
	for _, h := range []string{"stream.engine.shard_stage_ns", "stream.engine.merge_stage_ns"} {
		if got := s.Histograms[h].Count; got != days {
			t.Errorf("%s count = %d, want %d", h, got, days)
		}
	}
}
