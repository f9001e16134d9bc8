package scenario

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

// divergenceSpec adapts randomSpec for the divergence property: each
// present curve's first anchor is pinned to the baseline value 1.0, so
// the curve departs from baseline at a known interior day. (Raw
// randomCurve values are never exactly 1, and a curve clamping to a
// non-baseline value before its first anchor diverges at day 0 — the
// property below would compare no day.)
func divergenceSpec(rnd *rand.Rand) Spec {
	sp := randomSpec(rnd)
	for _, c := range specCurves(sp) {
		if len(c) > 0 {
			c[0].Value = 1.0
		}
	}
	return sp
}

// specCurves lists the five factor curves of a spec.
func specCurves(sp Spec) []Curve {
	return []Curve{sp.Activity, sp.Voice, sp.Data, sp.HomeCellular, sp.Throttle}
}

// The shared fixture of the simulation property test: a small world and
// the cached no-pandemic traces of the days any randomized spec can
// share with the null baseline (divergence is capped by the week-11
// weekend, so only days strictly below pandemic.NullDivergenceDay()
// ever need comparing).
var (
	divOnce sync.Once
	divPop  *popsim.Population
	divNull [][]mobsim.DayTrace
)

func divFixture(t *testing.T) (*popsim.Population, [][]mobsim.DayTrace) {
	t.Helper()
	divOnce.Do(func() {
		m := census.BuildUK(9)
		topo := radio.Build(m, radio.DefaultConfig(), 9)
		divPop = popsim.Synthesize(m, topo, popsim.Config{Seed: 9, TargetUsers: 200})
		sim := mobsim.New(divPop, pandemic.NoPandemic(), 9)
		buf := mobsim.NewDayBuffer()
		days := int(pandemic.NullDivergenceDay())
		divNull = make([][]mobsim.DayTrace, days)
		for d := 0; d < days; d++ {
			divNull[d] = copyTraces(sim.DayInto(buf, timegrid.StudyDay(d).ToSimDay()))
		}
	})
	return divPop, divNull
}

func copyTraces(traces []mobsim.DayTrace) []mobsim.DayTrace {
	out := make([]mobsim.DayTrace, len(traces))
	for i, tr := range traces {
		out[i] = mobsim.DayTrace{User: tr.User, Visits: append([]mobsim.Visit(nil), tr.Visits...)}
	}
	return out
}

func sameTraces(a, b []mobsim.DayTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User || len(a[i].Visits) != len(b[i].Visits) {
			return false
		}
		for j := range a[i].Visits {
			if a[i].Visits[j] != b[i].Visits[j] {
				return false
			}
		}
	}
	return true
}

// TestDivergenceDayPrefixBitIdentical is the conservative-contract
// gate over randomized specs: for every study day strictly below the
// scenario's DivergenceFrom the no-pandemic baseline — the day a
// prefix-sharing sweep forks on — the compiled scenario must be
// indistinguishable from that baseline: mobility traces bit-identical
// (covering the regional-activity, weekend-trip, exodus and relocation
// consults) and every per-day factor the traffic engine samples bitwise
// equal.
func TestDivergenceDayPrefixBitIdentical(t *testing.T) {
	pop, null := divFixture(t)
	nullScen := pandemic.NoPandemic()
	rnd := rand.New(rand.NewSource(20260807))
	buf := mobsim.NewDayBuffer()
	compared := 0
	for iter := 0; iter < 300; iter++ {
		sp := divergenceSpec(rnd)
		scen, err := sp.Scenario()
		if err != nil {
			t.Fatalf("iter %d: compiling random spec: %v", iter, err)
		}
		div := scen.DivergenceFrom(nullScen)
		sim := mobsim.New(pop, scen, 9)
		for d := 0; float64(d) < div && d < len(null); d++ {
			sd := timegrid.StudyDay(d)
			if scen.Activity(sd) != nullScen.Activity(sd) ||
				scen.VoiceFactor(sd) != nullScen.VoiceFactor(sd) ||
				scen.DataFactor(sd) != nullScen.DataFactor(sd) ||
				scen.HomeCellularFactor(sd) != nullScen.HomeCellularFactor(sd) ||
				scen.ThrottleFactor(sd) != nullScen.ThrottleFactor(sd) {
				t.Fatalf("iter %d: a traffic factor differs from null on day %d, before divergence day %v", iter, d, div)
			}
			if !sameTraces(sim.DayInto(buf, sd.ToSimDay()), null[d]) {
				t.Fatalf("iter %d: mobility traces differ from null on day %d, before divergence day %v", iter, d, div)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no spec shared a day with the null baseline; the property compared nothing")
	}
}

// TestRegistryDivergencePinned pins the pairwise integer-day divergence
// of the built-in scenarios — the fork tree of a registry sweep (see
// PERFORMANCE.md). A change here silently reshapes how much work
// copy-on-divergence sweeps share, so it must be deliberate.
func TestRegistryDivergencePinned(t *testing.T) {
	get := func(name string) *pandemic.Scenario {
		s, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		a, b string
		want float64
	}{
		{DefaultCovid, NoPandemic, 1},
		{LateLockdown, NoPandemic, 15},
		{EarlyLockdown, DefaultCovid, 0},
		{EarlyLockdown, NoPandemic, 0},
		{SecondWave, DefaultCovid, 42},
		{DeepOffload, DefaultCovid, 1},
		{VoiceSurge, DefaultCovid, 7},
		{LateLockdown, DefaultCovid, 1},
	}
	for _, c := range cases {
		a, b := get(c.a), get(c.b)
		if got := a.DivergenceFrom(b); got != c.want {
			t.Errorf("DivergenceFrom(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := b.DivergenceFrom(a); got != c.want {
			t.Errorf("DivergenceFrom(%s, %s) = %v, want %v (asymmetric)", c.b, c.a, got, c.want)
		}
	}
	for _, name := range Names() {
		s := get(name)
		if got := s.DivergenceFrom(s); !math.IsInf(got, 1) {
			t.Errorf("DivergenceFrom(%s, itself) = %v, want +Inf", name, got)
		}
	}
}
