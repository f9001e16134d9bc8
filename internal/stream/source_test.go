package stream

import (
	"context"
	"testing"

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
// first grows at most its window of stores, and the second draws only
// those, missing never.
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
			src := NewSimSourcePooled(context.Background(), pool, sim, nil, span[0], span[1], cfg)
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
		}
		if draws := hits.Value() + misses.Value(); draws != 12+20 {
			t.Errorf("workers=%d: %d draws, want one per day (32)", workers, draws)
		}
		if r := pool.Rejected(); r != 0 {
			t.Errorf("workers=%d: pool rejected %d releases", workers, r)
		}
	}
}
