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
			feedShards(sharded[i], n, day, traces)
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
// detector fed February allocates at most 26 bytes per distinct
// (user, night tower) pair (a 20-byte tally plus its user's share of the
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
	if perPair > 26 {
		t.Errorf("cold HomeDetector allocates %.1f B per (user, tower) pair, want ≤ 26", perPair)
	}
}

// TestShardedDetectAllocation pins the sharded result: an 8-shard
// stream.Homes detects into one map sized to its shards' users, so its
// Detect allocates at most 1.1× what a single detector's Detect does on
// the same February (per-shard maps plus their union cost about 2×).
func TestShardedDetectAllocation(t *testing.T) {
	f := februaryFixture(t)
	hd := core.NewHomeDetector(f.topo)
	const shards = 8
	sh := stream.NewHomes(f.topo, shards)
	f.eachDay(func(day timegrid.SimDay, traces []mobsim.DayTrace) {
		hd.ConsumeDay(day, traces)
		feedShards(sh, shards, day, traces)
	})
	var single, sharded map[popsim.UserID]core.Home
	one := detectBytes(func() { single = hd.Detect() })
	all := detectBytes(func() { sharded = sh.Detect() })
	t.Logf("Detect: single %d B, %d shards %d B", one, shards, all)
	if !reflect.DeepEqual(sharded, single) {
		t.Fatalf("%d-shard Detect found %d homes, single detector %d (or homes differ)", shards, len(sharded), len(single))
	}
	if float64(all) > 1.1*float64(one) {
		t.Errorf("%d-shard Detect allocates %d B, want ≤ 1.1 × %d B (single detector)", shards, all, one)
	}
}

// detectBytes returns the bytes fn allocates, the least of 3 tries so a
// background allocation cannot inflate it.
func detectBytes(fn func()) uint64 {
	var ms runtime.MemStats
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// feedShards hands one day to a sharded detector the way the stream
// engine does: BeginDay, then each shard's users in input order.
func feedShards(h *stream.Homes, shards int, day timegrid.SimDay, traces []mobsim.DayTrace) {
	h.BeginDay(day, traces)
	idx := make([][]int, shards)
	for j := range traces {
		s := stream.ShardOfUser(uint64(traces[j].User), shards)
		idx[s] = append(idx[s], j)
	}
	for s := range idx {
		h.ShardDay(s, day, traces, idx[s])
	}
	h.EndDay(day)
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

// fuzzTopo is the topology the fuzz targets resolve homes against.
var (
	fuzzTopoOnce sync.Once
	fuzzTopo     *radio.Topology
)

// fuzzDays decodes fuzz input into day-ordered batches of traces. Each
// trace takes a 3-byte header — op, user, visit count — and 4 bytes per
// visit: tower, bin, and 2 bytes of dwell, 0xFFFF meaning the longest
// dwell a visit encodes. An op divisible by 5 first advances the day by
// 1 to 3, so the input runs past February; 16 users make repeats within
// a day common, and bins span the whole day, night and not.
func fuzzDays(data []byte) (days []timegrid.SimDay, batches [][]mobsim.DayTrace) {
	day := timegrid.SimDay(0)
	for len(data) >= 3 {
		op, user, n := data[0], data[1], int(data[2]%6)
		data = data[3:]
		if op%5 == 0 {
			day += timegrid.SimDay(1 + int(op/5)%3)
		}
		tr := mobsim.DayTrace{User: popsim.UserID(user % 16)}
		for k := 0; k < n && len(data) >= 4; k++ {
			sec := int32(data[2])<<8 | int32(data[3])
			if sec == 0xFFFF {
				sec = mobsim.MaxVisitSeconds
			}
			tr.Visits = append(tr.Visits, mobsim.MakeVisit(radio.TowerID(data[0]%7), timegrid.Bin(data[1]%timegrid.BinsPerDay), sec, false))
			data = data[4:]
		}
		if len(days) == 0 || days[len(days)-1] != day {
			days = append(days, day)
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], tr)
	}
	return days, batches
}

// fuzzMonth encodes a whole February and a few days past it: every day
// each of four users sleeps under two towers, at the longest dwell on
// some nights, so the 14- and 29-night thresholds both see homes.
func fuzzMonth() []byte {
	var b []byte
	for day := 0; day < timegrid.FebruaryDays+3; day++ {
		for u := byte(0); u < 4; u++ {
			op := byte(1)
			if u == 0 && day > 0 {
				op = 0
			}
			sec := []byte{byte(day), u}
			if day%5 == int(u) {
				sec = []byte{0xFF, 0xFF}
			}
			b = append(b, op, u, 3,
				u, 0, sec[0], sec[1],
				u+1, 1, 0, 40,
				u+2, 3, 1, 0)
		}
	}
	return b
}

// FuzzHomeDetector feeds arbitrary February and later traces to the
// arena detector and to the map-of-maps reference, and requires the
// same homes at 1, 14 and 29 minimum nights, and through stream.Homes
// at 1 and 3 shards.
func FuzzHomeDetector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 4, 0, 0, 9, 9, 1, 0, 9})
	f.Add(fuzzMonth())
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTopoOnce.Do(func() {
			fuzzTopo = radio.Build(census.BuildUK(1), radio.DefaultConfig(), 1)
		})
		days, batches := fuzzDays(data)
		ref := newMapDetector(fuzzTopo)
		hd := core.NewHomeDetector(fuzzTopo)
		shardCounts := []int{1, 3}
		sharded := make([]*stream.Homes, len(shardCounts))
		for i, n := range shardCounts {
			sharded[i] = stream.NewHomes(fuzzTopo, n)
		}
		for d, day := range days {
			traces := batches[d]
			for i := range traces {
				ref.consumeTrace(day, &traces[i])
			}
			hd.ConsumeDay(day, traces)
			for i, n := range shardCounts {
				feedShards(sharded[i], n, day, traces)
			}
		}
		for _, nights := range []int{1, 14, 29} {
			ref.minNights, hd.MinNights = nights, nights
			if got, want := hd.Detect(), ref.detect(); !reflect.DeepEqual(got, want) {
				t.Fatalf("min %d nights: arena %v, reference %v", nights, got, want)
			}
		}
		ref.minNights = 14
		want := ref.detect()
		for i, n := range shardCounts {
			if got := sharded[i].Detect(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream.Homes with %d shards: %v, reference %v", n, got, want)
			}
		}
	})
}
