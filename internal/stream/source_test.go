package stream

import (
	"context"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

// TestSimSourcesShareWarmPool runs two sources back to back on one
// pool, the way RunStreamingOn runs its February and study passes: the
// first grows its window of stores, and the second draws only those,
// missing never. How many stores the first grows depends on how far its
// producers get ahead of the engine, so the test holds the first day,
// unreleased, until they have filled the window, then hands it and the
// rest of the source to the engine.
func TestSimSourcesShareWarmPool(t *testing.T) {
	m := census.BuildUK(1)
	topo := radio.Build(m, radio.DefaultConfig(), 1)
	pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 1, TargetUsers: 300})
	sim := mobsim.New(pop, pandemic.Default(), 1)

	for _, workers := range []int{1, 2, 3} {
		reg := obs.New()
		cfg := Config{Workers: workers, Metrics: reg}.WithDefaults()
		window := int64(cfg.Workers + cfg.Buffer)
		pool := NewBufferPool(int(window)).Instrument(cfg.Metrics)
		misses, hits := reg.Counter("stream.pool.misses"), reg.Counter("stream.pool.hits")

		for pass, span := range [][2]timegrid.SimDay{{0, 12}, {10, 30}} {
			before := misses.Value()
			var src Source = NewSimSourcePooled(context.Background(), pool, sim, nil, span[0], span[1], cfg)
			if pass == 0 {
				b, err := src.Next()
				if err != nil {
					t.Fatalf("workers=%d: first day: %v", workers, err)
				}
				for deadline := time.Now().Add(10 * time.Second); misses.Value() < window; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("workers=%d: producers drew %d stores while day 0 was held, want %d", workers, misses.Value(), window)
					}
				}
				src = &heldSource{first: &b, src: src}
			}
			if err := NewEngine(cfg).Run(context.Background(), src); err != nil {
				t.Fatalf("workers=%d pass %d: %v", workers, pass, err)
			}
			got := misses.Value() - before
			if pass == 0 && got > window {
				t.Errorf("workers=%d: first source missed %d times, want <= %d (Workers+Buffer)", workers, got, window)
			}
			if pass == 1 && got != 0 {
				t.Errorf("workers=%d: second source missed %d times on a warm pool, want 0", workers, got)
			}
			if total := misses.Value(); total > window {
				t.Errorf("workers=%d: the two sources missed %d times in all, want <= %d (Workers+Buffer)", workers, total, window)
			}
		}
		if draws := hits.Value() + misses.Value(); draws != 12+20 {
			t.Errorf("workers=%d: %d draws, want one per day (32)", workers, draws)
		}
		if r := pool.Rejected(); r != 0 {
			t.Errorf("workers=%d: pool rejected %d releases", workers, r)
		}
	}
}

// heldSource hands out first, then the rest of src.
type heldSource struct {
	first *DayBatch
	src   Source
}

func (h *heldSource) Next() (DayBatch, error) {
	if b := h.first; b != nil {
		h.first = nil
		return *b, nil
	}
	return h.src.Next()
}
