package core_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// mapDetector is the reference home detector: the map-of-maps state the
// arena replaced, kept verbatim so the arena can be checked against it.
type mapDetector struct {
	topo         *radio.Topology
	minNights    int
	nightSeconds map[popsim.UserID]map[radio.TowerID]float64
	nightCount   map[popsim.UserID]map[radio.TowerID]int
}

func newMapDetector(topo *radio.Topology) *mapDetector {
	return &mapDetector{
		topo:         topo,
		minNights:    14,
		nightSeconds: make(map[popsim.UserID]map[radio.TowerID]float64),
		nightCount:   make(map[popsim.UserID]map[radio.TowerID]int),
	}
}

func (h *mapDetector) consumeTrace(day timegrid.SimDay, t *mobsim.DayTrace) {
	if !day.InFebruary() {
		return
	}
	// One night's dwell per tower, in order of first visit.
	type towerDwell struct {
		tower radio.TowerID
		sec   float64
	}
	var night []towerDwell
	for _, v := range t.Visits {
		if b := v.Bin(); b != 0 && b != 1 {
			continue
		}
		tw, sec := v.Tower(), float64(v.Seconds())
		found := false
		for i := range night {
			if night[i].tower == tw {
				night[i].sec += sec
				found = true
				break
			}
		}
		if !found {
			night = append(night, towerDwell{tower: tw, sec: sec})
		}
	}
	if len(night) == 0 {
		return
	}
	us, ok := h.nightSeconds[t.User]
	if !ok {
		us = make(map[radio.TowerID]float64, 2)
		h.nightSeconds[t.User] = us
		h.nightCount[t.User] = make(map[radio.TowerID]int, 2)
	}
	uc := h.nightCount[t.User]
	for _, td := range night {
		us[td.tower] += td.sec
		uc[td.tower]++
	}
}

func (h *mapDetector) detect() map[popsim.UserID]core.Home {
	out := make(map[popsim.UserID]core.Home, len(h.nightSeconds))
	for user, perTower := range h.nightSeconds {
		var best radio.TowerID
		bestSec := -1.0
		for tw, s := range perTower {
			if s > bestSec || (s == bestSec && tw < best) {
				best, bestSec = tw, s
			}
		}
		if bestSec < 0 || h.nightCount[user][best] < h.minNights {
			continue
		}
		tw := h.topo.Tower(best)
		out[user] = core.Home{User: user, Tower: best, District: tw.District, County: tw.County}
	}
	return out
}

// pairs counts the distinct (user, night tower) pairs seen.
func (h *mapDetector) pairs() int {
	n := 0
	for _, us := range h.nightSeconds {
		n += len(us)
	}
	return n
}

// february is an 8k-user world's February, big enough that the
// detector's tallies span many arena blocks.
type february struct {
	topo *radio.Topology
	sim  *mobsim.Simulator
}

var (
	febOnce sync.Once
	feb     february
)

func februaryFixture(t *testing.T) february {
	t.Helper()
	febOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 1, TargetUsers: 8000})
		feb = february{topo: topo, sim: mobsim.New(pop, pandemic.Default(), 1)}
	})
	return feb
}

// eachDay simulates February into one reused buffer and hands
// every day to fn.
func (f february) eachDay(fn func(timegrid.SimDay, []mobsim.DayTrace)) {
	buf := mobsim.NewDayBuffer()
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		fn(day, f.sim.DayInto(buf, day))
	}
}

// TestHomeDetectorMatchesMapReference checks the arena detector, and the
// sharded stream.Homes built on it, against the map-of-maps reference
// over a whole February at every ablation threshold.
func TestHomeDetectorMatchesMapReference(t *testing.T) {
	f := februaryFixture(t)
	ref := newMapDetector(f.topo)
	hd := core.NewHomeDetector(f.topo)
	shardCounts := []int{1, 2, 8}
	sharded := make([]*stream.Homes, len(shardCounts))
	for i, n := range shardCounts {
		sharded[i] = stream.NewHomes(f.topo, n)
	}
	f.eachDay(func(day timegrid.SimDay, traces []mobsim.DayTrace) {
		for i := range traces {
			ref.consumeTrace(day, &traces[i])
		}
		hd.ConsumeDay(day, traces)
		for i, n := range shardCounts {
			idx := make([][]int, n)
			for j := range traces {
				s := stream.ShardOfUser(uint64(traces[j].User), n)
				idx[s] = append(idx[s], j)
			}
			for s := range idx {
				sharded[i].ShardDay(s, day, traces, idx[s])
			}
		}
	})
	if p := ref.pairs(); p < 8*4096 {
		t.Fatalf("only %d (user, tower) pairs: the fixture spans too few 4Ki-entry arena blocks", p)
	}
	for _, nights := range []int{7, 14, 21, 28} {
		ref.minNights, hd.MinNights = nights, nights
		want := ref.detect()
		if got := hd.Detect(); !reflect.DeepEqual(got, want) {
			t.Errorf("min %d nights: arena detector found %d homes, reference %d (or homes differ)", nights, len(got), len(want))
		}
	}
	ref.minNights = 14
	want := ref.detect()
	for i, n := range shardCounts {
		if got := sharded[i].Detect(); !reflect.DeepEqual(got, want) {
			t.Errorf("stream.Homes with %d shards found %d homes, reference %d (or homes differ)", n, len(got), len(want))
		}
	}
}

// TestHomeDetectorColdAllocation pins the arena's cold cost: a fresh
// detector fed February allocates at most 40 bytes per distinct
// (user, night tower) pair (a 24-byte tally plus its user's share of the
// head map and the last, partly filled block). Two maps per user cost
// about 129 bytes.
func TestHomeDetectorColdAllocation(t *testing.T) {
	f := februaryFixture(t)
	ref := newMapDetector(f.topo)
	hd := core.NewHomeDetector(f.topo)
	var bytes uint64
	var ms runtime.MemStats
	f.eachDay(func(day timegrid.SimDay, traces []mobsim.DayTrace) {
		for i := range traces {
			ref.consumeTrace(day, &traces[i])
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		hd.ConsumeDay(day, traces)
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
	})
	pairs := ref.pairs()
	perPair := float64(bytes) / float64(pairs)
	t.Logf("%d pairs, %d bytes, %.1f B/pair", pairs, bytes, perPair)
	if perPair > 40 {
		t.Errorf("cold HomeDetector allocates %.1f B per (user, tower) pair, want ≤ 40", perPair)
	}
}

// TestHomeDetectorTieGoesToLowerTower feeds two towers of equal night
// dwell in alternating order, starting with either tower (so either one
// heads the user's tally chain), and expects the lower TowerID to win.
func TestHomeDetectorTieGoesToLowerTower(t *testing.T) {
	topo := radio.Build(census.BuildUK(1), radio.DefaultConfig(), 1)
	for _, first := range [][2]radio.TowerID{{4, 9}, {9, 4}} {
		hd := core.NewHomeDetector(topo)
		for day := timegrid.SimDay(0); day < 20; day++ {
			a, b := first[0], first[1]
			if day%2 == 1 {
				a, b = b, a
			}
			tr := mobsim.DayTrace{User: 3, Visits: []mobsim.Visit{
				mobsim.MakeVisit(a, 0, 3600, true),
				mobsim.MakeVisit(b, 1, 3600, true),
			}}
			hd.ConsumeTrace(day, &tr)
		}
		home, ok := hd.Detect()[3]
		if !ok || home.Tower != 4 {
			t.Errorf("towers first seen in order %v: home %+v (found %v), want tower 4", first, home, ok)
		}
	}
}
