// Scale-ladder regression tests: the memory-diet guarantees of the
// million-subscriber ladder, pinned at the 100k (ScaleMedium) rung so
// the full -race suite exercises them on every run. The 8k goldens pin
// bit-exactness at the default scale; these tests pin that nothing
// about correctness or the allocation discipline is scale-dependent.
package repro_test

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// scaleBytesPerUserBudget is the documented marginal heap budget of one
// simulated subscriber: population record + anchors + columnar mirror +
// per-day arenas, amortized. PERFORMANCE.md ("Scale ladder") derives
// the number; TestBytesPerUserBudget fails when a rung exceeds it by
// more than 20%, which is how a fat field sneaking back into Visit or
// User gets caught before it costs gigabytes at the 1M rung.
const scaleBytesPerUserBudget = 576

var (
	scaleOnce sync.Once
	scaleDS   *experiments.Dataset
)

// scaleDataset builds the shared ScaleMedium stack once per test
// process; ~100k users keeps the full suite tractable under -race
// while being 12× past the scale every golden fixture runs at.
func scaleDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	if testing.Short() {
		t.Skip("ScaleMedium fixture skipped in -short mode")
	}
	scaleOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.TargetUsers = popsim.ScaleMedium
		scaleDS = experiments.NewDataset(cfg)
	})
	return scaleDS
}

// TestScaleParityMediumRung runs simulated days at the 100k rung
// through both production paths — the serial DayInto/DayAppend loop and
// the re-sequencing streaming source on a 4-worker pool — and requires
// the packed traces, the KPI cells and the §2.3 mobility folds to be
// bit-identical. Under -race this doubles as the synchronization check
// at a scale where worker interleavings differ from the 8k fixtures.
func TestScaleParityMediumRung(t *testing.T) {
	d := scaleDataset(t)
	first := timegrid.SimDay(timegrid.StudyDayOffset + 29) // a weekend/weekday straddle
	limit := first + 3

	// The serial reference runs on its own clone, taken before any worker
	// starts: the source's first worker runs on d.Engine itself, and two
	// DayAppend calls on one engine race on its scratch.
	ref := d.Engine.Clone()
	src := stream.NewSimSource(context.Background(), d.Sim, d.Engine, first, limit,
		stream.Config{Workers: 4})
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	var merger core.VisitMerger
	days := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Serial reference for the same day, on the same simulator and
		// a clone of the engine the source cloned its workers from.
		traces := d.Sim.DayInto(buf, b.Day)
		cells = ref.DayAppend(cells[:0], b.Day, traces)

		if len(traces) != len(b.Traces) {
			t.Fatalf("day %d: %d serial vs %d streamed traces", b.Day, len(traces), len(b.Traces))
		}
		for i := range traces {
			if traces[i].User != b.Traces[i].User {
				t.Fatalf("day %d trace %d: user %d vs %d", b.Day, i, traces[i].User, b.Traces[i].User)
			}
			sv, gv := traces[i].Visits, b.Traces[i].Visits
			if len(sv) != len(gv) {
				t.Fatalf("day %d user %d: %d vs %d visits", b.Day, traces[i].User, len(sv), len(gv))
			}
			for j := range sv {
				if sv[j] != gv[j] {
					t.Fatalf("day %d user %d visit %d: %v vs %v", b.Day, traces[i].User, j, sv[j], gv[j])
				}
			}
			// Mobility fold parity on a deterministic user sample (the
			// full fold over 100k users triples the test's wall clock
			// for no extra discrimination once visits match bit-for-bit).
			if i%37 == 0 {
				sm := merger.DayMetrics(&traces[i], d.Topology, core.DefaultTopN)
				gm := merger.DayMetrics(&b.Traces[i], d.Topology, core.DefaultTopN)
				if sm != gm {
					t.Fatalf("day %d user %d: mobility fold %+v vs %+v", b.Day, traces[i].User, sm, gm)
				}
			}
		}

		if len(cells) != len(b.Cells) {
			t.Fatalf("day %d: %d serial vs %d streamed cells", b.Day, len(cells), len(b.Cells))
		}
		for i := range cells {
			if cells[i] != b.Cells[i] {
				t.Fatalf("day %d cell %d: %+v vs %+v", b.Day, cells[i].Cell, cells[i], b.Cells[i])
			}
		}
		b.Release()
		days++
	}
	if want := int(limit - first); days != want {
		t.Fatalf("streamed %d days, want %d", days, want)
	}
}

// TestScaleAllocPinsMediumRung re-pins the zero-allocation guarantees
// of the per-day hot path at the 100k rung: arena reuse that only holds
// at the tuned 8k working size would be a silent O(users·days)
// regression at scale.
func TestScaleAllocPinsMediumRung(t *testing.T) {
	d := scaleDataset(t)
	days := []timegrid.SimDay{
		timegrid.SimDay(timegrid.StudyDayOffset + 10),
		timegrid.SimDay(timegrid.StudyDayOffset + 15), // weekend
		timegrid.SimDay(timegrid.StudyDayOffset + 40),
	}
	buf := mobsim.NewDayBuffer()
	for _, day := range days {
		d.Sim.DayInto(buf, day)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(days), func() {
		d.Sim.DayInto(buf, days[i%len(days)])
		i++
	}); allocs > 0 {
		t.Errorf("DayInto allocates %.1f times per 100k-user day in steady state, want 0", allocs)
	}

	traces := d.Sim.DayInto(buf, days[0])
	var cells []traffic.CellDay
	cells = d.Engine.DayAppend(cells, days[0], traces)
	if allocs := testing.AllocsPerRun(3, func() {
		cells = d.Engine.DayAppend(cells[:0], days[0], traces)
	}); allocs > 0 {
		t.Errorf("DayAppend allocates %.1f times per 100k-user day in steady state, want 0", allocs)
	}
}

// liveHeap returns the post-GC live heap.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestBytesPerUserBudget measures the marginal heap cost of a
// subscriber between two ladder rungs — (live(ScaleMedium stack) −
// live(ScaleSmall stack)) / (ScaleMedium − ScaleSmall), which cancels
// the scale-independent world (census, topology, scenario) that
// dominates small rungs — and fails if it exceeds the documented
// budget with 20% headroom.
func TestBytesPerUserBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder rung builds skipped in -short mode")
	}
	build := func(users int) *experiments.Dataset {
		cfg := experiments.DefaultConfig()
		cfg.TargetUsers = users
		return experiments.NewDataset(cfg)
	}
	base := liveHeap()
	small := build(popsim.ScaleSmall)
	afterSmall := liveHeap()
	medium := build(popsim.ScaleMedium)
	afterMedium := liveHeap()
	runtime.KeepAlive(small)
	runtime.KeepAlive(medium)

	smallBytes := afterSmall - base
	marginal := float64(afterMedium-afterSmall) / float64(popsim.ScaleMedium-popsim.ScaleSmall)
	t.Logf("rung %d: %d bytes live; marginal %.0f bytes/user (budget %d, headroom 20%%)",
		popsim.ScaleSmall, smallBytes, marginal, scaleBytesPerUserBudget)
	if limit := float64(scaleBytesPerUserBudget) * 1.2; marginal > limit {
		t.Errorf("marginal heap cost %.0f bytes/user exceeds the documented budget %d +20%% (%.0f); "+
			"update PERFORMANCE.md (\"Scale ladder\") only with a justification",
			marginal, scaleBytesPerUserBudget, limit)
	}
}
