package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/mobsim"
	"repro/internal/radio"
)

func samplesOf(secs ...float64) []VisitSample {
	out := make([]VisitSample, len(secs))
	for i, s := range secs {
		out[i] = VisitSample{
			Tower:   radio.TowerID(i),
			Loc:     geo.Pt(float64(i*3), 0),
			Seconds: s,
		}
	}
	return out
}

func TestEntropyKnownValues(t *testing.T) {
	// Single place: zero entropy.
	if got := Entropy(samplesOf(86_400)); got != 0 {
		t.Errorf("single-place entropy = %v", got)
	}
	// Two equal places: ln 2.
	if got := Entropy(samplesOf(100, 100)); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("two-place entropy = %v, want ln2", got)
	}
	// Four equal places: ln 4.
	if got := Entropy(samplesOf(1, 1, 1, 1)); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Errorf("four-place entropy = %v", got)
	}
	// Skew reduces entropy below the uniform bound.
	if got := Entropy(samplesOf(99, 1)); got >= math.Log(2) || got <= 0 {
		t.Errorf("skewed entropy = %v", got)
	}
	// Empty and non-positive dwell.
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
	if got := Entropy(samplesOf(0, -5)); got != 0 {
		t.Errorf("degenerate entropy = %v", got)
	}
	// Non-positive entries ignored: {100, 0} behaves like {100}.
	if got := Entropy(samplesOf(100, 0)); got != 0 {
		t.Errorf("zero-dwell entry affected entropy: %v", got)
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]VisitSample, 0, len(raw))
		n := 0
		for i, s := range raw {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true
			}
			s = math.Abs(s)
			if s > 0 {
				n++
			}
			samples = append(samples, VisitSample{Tower: radio.TowerID(i), Seconds: s})
		}
		e := Entropy(samples)
		if e < -1e-12 {
			return false
		}
		if n > 0 && e > math.Log(float64(n))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGyrationFromSamples(t *testing.T) {
	s := []VisitSample{
		{Tower: 0, Loc: geo.Pt(0, 0), Seconds: 1},
		{Tower: 1, Loc: geo.Pt(10, 0), Seconds: 1},
	}
	var m VisitMerger
	if got := m.gyration(s); math.Abs(got-5) > 1e-12 {
		t.Errorf("gyration = %v, want 5", got)
	}
	if got := m.gyration(nil); got != 0 {
		t.Errorf("empty gyration = %v", got)
	}
	// A home-body (all dwell at one tower) has zero gyration.
	if got := m.gyration(s[:1]); got != 0 {
		t.Errorf("single-tower gyration = %v", got)
	}
}

func TestTopN(t *testing.T) {
	s := samplesOf(5, 4, 3, 2, 1)
	if got := TopN(s, 3); len(got) != 3 {
		t.Fatalf("TopN(3) = %d entries", len(got))
	}
	if got := TopN(s, 0); len(got) != 5 {
		t.Error("TopN(0) should disable filtering")
	}
	if got := TopN(s, 10); len(got) != 5 {
		t.Error("TopN larger than input should be identity")
	}
}

func TestMergeVisitsAndTopNOrdering(t *testing.T) {
	// Building a tiny topology-like fixture via the real simulator
	// stack is heavy; VisitMerger.Merge is exercised on real traces in
	// TestMergeVisitsProperties, so only check the ordering contract here.
	s := []VisitSample{
		{Tower: 2, Seconds: 10}, {Tower: 1, Seconds: 30}, {Tower: 3, Seconds: 20},
	}
	// TopN assumes descending order: construct it as Merge would.
	ordered := []VisitSample{s[1], s[2], s[0]}
	top := TopN(ordered, 2)
	if top[0].Seconds != 30 || top[1].Seconds != 20 {
		t.Errorf("TopN kept wrong entries: %+v", top)
	}
}

func TestTopNReducesEntropy(t *testing.T) {
	// The filter drops low-dwell places, so entropy can only decrease
	// or stay equal.
	s := samplesOf(50, 20, 10, 5, 2, 1)
	full := Entropy(s)
	filtered := Entropy(TopN(s, 3))
	if filtered > full {
		t.Errorf("TopN increased entropy: %v > %v", filtered, full)
	}
}

// fakeTrace builds a DayTrace directly.
func fakeTrace(user uint32, visits ...mobsim.Visit) mobsim.DayTrace {
	return mobsim.DayTrace{User: 0, Visits: visits}
}

func TestBinMetricsSelectsBin(t *testing.T) {
	// BinMetrics must only see the chosen bin's dwell. Uses a real
	// topology from the integration fixture.
	r := fixtureResults(t)
	topo := r.Dataset.Topology
	tw0, tw1 := radio.TowerID(0), radio.TowerID(1)
	tr := fakeTrace(0,
		mobsim.MakeVisit(tw0, 0, 14_400, false),
		mobsim.MakeVisit(tw1, 2, 14_400, false),
	)
	m0 := BinMetrics(&tr, topo, 0, 20)
	if m0.Towers != 1 || m0.Entropy != 0 {
		t.Errorf("bin 0 metrics = %+v", m0)
	}
	m1 := BinMetrics(&tr, topo, 1, 20)
	if m1.Towers != 0 {
		t.Errorf("bin 1 should be empty, got %+v", m1)
	}
	whole := new(VisitMerger).DayMetrics(&tr, topo, 20)
	if whole.Towers != 2 {
		t.Errorf("whole-day towers = %d", whole.Towers)
	}
	if whole.Entropy <= 0 {
		t.Error("two-tower day should have positive entropy")
	}
}

func TestMergeVisitsProperties(t *testing.T) {
	r := fixtureResults(t)
	topo := r.Dataset.Topology
	traces := r.Sim.DayInto(mobsim.NewDayBuffer(), 40)
	for i := range traces[:100] {
		tr := &traces[i]
		samples := new(VisitMerger).Merge(tr, topo)
		// Dwell conservation: merged seconds equal the trace total.
		var merged, raw float64
		for _, s := range samples {
			merged += s.Seconds
		}
		for _, v := range tr.Visits {
			raw += float64(v.Seconds())
		}
		if merged != raw {
			t.Fatalf("user %d: merged %v vs raw %v", tr.User, merged, raw)
		}
		// Descending order and distinct towers.
		seen := map[radio.TowerID]bool{}
		for j, s := range samples {
			if seen[s.Tower] {
				t.Fatalf("user %d: duplicate tower after merge", tr.User)
			}
			seen[s.Tower] = true
			if j > 0 && s.Seconds > samples[j-1].Seconds {
				t.Fatalf("user %d: samples not descending", tr.User)
			}
			if s.Loc != topo.Tower(s.Tower).Loc {
				t.Fatalf("user %d: stale location", tr.User)
			}
		}
	}
}

func TestTopNSubsetEntropyGyration(t *testing.T) {
	// Structural property on real traces: the top-N filter never
	// increases entropy, and keeps gyration finite and non-negative.
	r := fixtureResults(t)
	topo := r.Dataset.Topology
	traces := r.Sim.DayInto(mobsim.NewDayBuffer(), 25)
	var g VisitMerger
	for i := range traces[:150] {
		samples := new(VisitMerger).Merge(&traces[i], topo)
		full := Entropy(samples)
		for _, n := range []int{1, 3, 8} {
			sub := TopN(samples, n)
			if e := Entropy(sub); e > full+1e-9 {
				t.Fatalf("topN(%d) raised entropy %v > %v", n, e, full)
			}
			if gy := g.gyration(sub); gy < 0 || math.IsNaN(gy) {
				t.Fatalf("topN(%d) gyration %v", n, gy)
			}
		}
	}
}
