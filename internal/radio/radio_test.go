package radio

import (
	"testing"

	"repro/internal/census"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

func buildTest(t *testing.T) (*census.Model, *Topology) {
	t.Helper()
	m := census.BuildUK(1)
	topo := Build(m, DefaultConfig(), 1)
	return m, topo
}

func TestBuildTopologyBasics(t *testing.T) {
	m, topo := buildTest(t)
	if len(topo.Towers) == 0 || len(topo.Cells) == 0 {
		t.Fatal("empty topology")
	}
	// Every district has at least one tower.
	for i := range m.Districts {
		if len(topo.towersByDistrict[census.DistrictID(i)]) == 0 {
			t.Errorf("district %s has no towers", m.Districts[i].Code)
		}
	}
	// Towers carry consistent geography and all have 4G.
	for i := range topo.Towers {
		tw := &topo.Towers[i]
		if tw.ID != TowerID(i) {
			t.Fatalf("tower %d mis-IDed", i)
		}
		d := m.District(tw.District)
		if d.County != tw.County {
			t.Errorf("tower %d county mismatch", i)
		}
		if !tw.HasRAT[RAT4G] {
			t.Errorf("tower %d lacks 4G", i)
		}
		if tw.Sectors <= 0 {
			t.Errorf("tower %d has %d sectors", i, tw.Sectors)
		}
		if d.Area.Center.Dist(tw.Loc) > d.Area.Radius {
			t.Errorf("tower %d outside its district disc", i)
		}
	}
}

func TestCellsConsistent(t *testing.T) {
	_, topo := buildTest(t)
	count4g := 0
	for i := range topo.Cells {
		c := &topo.Cells[i]
		if c.ID != CellID(i) {
			t.Fatalf("cell %d mis-IDed", i)
		}
		tw := topo.Tower(c.Tower)
		if !tw.HasRAT[c.RAT] {
			t.Errorf("cell %d on RAT %v not supported by tower", i, c.RAT)
		}
		if c.Sector < 0 || c.Sector >= tw.Sectors {
			t.Errorf("cell %d sector %d out of range", i, c.Sector)
		}
		if c.RAT == RAT4G {
			count4g++
		}
	}
	if got := len(topo.Cells4G()); got != count4g {
		t.Errorf("Cells4G() = %d, counted %d", got, count4g)
	}
	// Per-tower indices are complete.
	total4g := 0
	for i := range topo.Towers {
		id := TowerID(i)
		total4g += len(topo.Cells4GOfTower(id))
		for _, cid := range topo.Cells4GOfTower(id) {
			if topo.Cells[cid].RAT != RAT4G || topo.Cells[cid].Tower != id {
				t.Errorf("cell %d in tower %d's 4G index", cid, id)
			}
		}
	}
	if total4g != count4g {
		t.Errorf("4G index total %d vs %d", total4g, count4g)
	}
}

func TestDeploymentDensityFollowsDemand(t *testing.T) {
	m, topo := buildTest(t)
	ec, _ := m.DistrictByCode("EC")
	sw, _ := m.DistrictByCode("SW")
	ecTowers := len(topo.towersByDistrict[ec.ID])
	swTowers := len(topo.towersByDistrict[sw.ID])
	// EC has 13× fewer residents but huge visitor weight: its per-capita
	// radio capacity must far exceed SW's.
	ecPerCapita := float64(ecTowers) / float64(ec.Population)
	swPerCapita := float64(swTowers) / float64(sw.Population)
	if ecPerCapita < 5*swPerCapita {
		t.Errorf("EC per-capita towers %v, SW %v: CBD should be much denser", ecPerCapita, swPerCapita)
	}
}

func TestDeterminism(t *testing.T) {
	m := census.BuildUK(1)
	a := Build(m, DefaultConfig(), 42)
	b := Build(m, DefaultConfig(), 42)
	if len(a.Towers) != len(b.Towers) {
		t.Fatal("tower counts differ")
	}
	for i := range a.Towers {
		if a.Towers[i].Loc != b.Towers[i].Loc || a.Towers[i].ActivationDay != b.Towers[i].ActivationDay {
			t.Fatalf("tower %d differs across identical builds", i)
		}
	}
}

// activeOn lists the sites of a district on air on day from its
// activation epochs, or nil when none is.
func activeOn(topo *Topology, d census.DistrictID, day timegrid.SimDay) []TowerID {
	var on []TowerID
	for _, e := range topo.epochs[d] {
		if e.from <= day {
			on = e.on
		}
	}
	return on
}

func TestActivationEpochs(t *testing.T) {
	m := census.BuildUK(1)
	cfg := DefaultConfig()
	cfg.NewSiteFraction = 0.2 // force plenty of new sites
	topo := Build(m, cfg, 3)
	count := func(day timegrid.SimDay) int {
		n := 0
		for i := range m.Districts {
			n += len(activeOn(topo, census.DistrictID(i), day))
		}
		return n
	}
	day0, end := count(0), count(timegrid.SimDays-1)
	if day0 >= end {
		t.Errorf("active towers should grow: day0 %d, end %d", day0, end)
	}
	if end != len(topo.Towers) {
		t.Errorf("all towers active by the last day: %d/%d", end, len(topo.Towers))
	}
	for i := range m.Districts {
		did := census.DistrictID(i)
		eps := topo.epochs[did]
		for k := 1; k < len(eps); k++ {
			if eps[k].from <= eps[k-1].from || len(eps[k].on) <= len(eps[k-1].on) {
				t.Fatalf("district %d: epochs %d and %d do not grow", i, k-1, k)
			}
		}
		if len(activeOn(topo, did, 0)) > len(topo.towersByDistrict[did]) {
			t.Fatal("active > total")
		}
	}
}

func TestPickTower(t *testing.T) {
	m, topo := buildTest(t)
	src := rng.New(5)
	for i := 0; i < 50; i++ {
		did := census.DistrictID(src.Intn(len(m.Districts)))
		tw := topo.PickTower(did, 0, src)
		if topo.Tower(tw).District != did {
			t.Fatalf("PickTower returned tower of another district")
		}
	}
}

// oraclePickTower is the counting form PickTower replaced: count the
// district's sites active on day, then walk the list again to the k-th.
func oraclePickTower(t *Topology, d census.DistrictID, day timegrid.SimDay, src *rng.Source) TowerID {
	all := t.towersByDistrict[d]
	active := 0
	for _, id := range all {
		if t.Towers[id].ActiveOn(day) {
			active++
		}
	}
	if active == 0 {
		return all[src.Intn(len(all))]
	}
	k := src.Intn(active)
	for _, id := range all {
		if t.Towers[id].ActiveOn(day) {
			if k == 0 {
				return id
			}
			k--
		}
	}
	return all[0]
}

// TestPickTowerMatchesCount checks PickTower against the counting
// oracle for every district on every simulated day, from the default
// new-site fraction up to 1.0 (no site on air on day 0, so the pick
// falls back to every site): same tower, and both streams in step.
func TestPickTowerMatchesCount(t *testing.T) {
	m := census.BuildUK(1)
	for _, frac := range []float64{0.01, 0.2, 1.0} {
		cfg := DefaultConfig()
		cfg.NewSiteFraction = frac
		topo := Build(m, cfg, 3)
		a, b := rng.New(9), rng.New(9)
		for i := range m.Districts {
			did := census.DistrictID(i)
			for day := timegrid.SimDay(0); day < timegrid.SimDays; day++ {
				for range 3 {
					if got, want := topo.PickTower(did, day, a), oraclePickTower(topo, did, day, b); got != want {
						t.Fatalf("fraction %v district %d day %d: tower %d, oracle %d", frac, i, day, got, want)
					}
					if a.Uint64() != b.Uint64() {
						t.Fatalf("fraction %v district %d day %d: streams out of step", frac, i, day)
					}
				}
			}
		}
	}
}

// TestPickTowerAllocatesNothing pins PickTower at zero allocations.
func TestPickTowerAllocatesNothing(t *testing.T) {
	m := census.BuildUK(1)
	cfg := DefaultConfig()
	cfg.NewSiteFraction = 0.2
	topo := Build(m, cfg, 3)
	src := rng.New(5)
	var sink TowerID
	if n := testing.AllocsPerRun(1000, func() {
		sink = topo.PickTower(census.DistrictID(src.Intn(len(m.Districts))), timegrid.SimDay(src.Intn(timegrid.SimDays)), src)
	}); n != 0 {
		t.Errorf("%v allocs per pick, want 0", n)
	}
	_ = sink
}

func TestNearestTower(t *testing.T) {
	_, topo := buildTest(t)
	for i := 0; i < 20; i++ {
		want := &topo.Towers[i*7%len(topo.Towers)]
		got := topo.NearestTower(want.Loc)
		if topo.Tower(got).Loc.Dist(want.Loc) > 1e-9 {
			t.Errorf("NearestTower(%v) returned a farther tower", want.Loc)
		}
	}
}

// TestRATShare checks the per-RAT cell shares: they sum to one and 4G
// has at least as many cells as 2G.
func TestRATShare(t *testing.T) {
	_, topo := buildTest(t)
	var counts [NumRATs]int
	for i := range topo.Cells {
		counts[topo.Cells[i].RAT]++
	}
	var sum float64
	for _, n := range counts {
		sum += float64(n) / float64(len(topo.Cells))
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("RAT shares sum to %v", sum)
	}
	if counts[RAT4G] < counts[RAT2G] {
		t.Errorf("%d 4G cells, %d 2G: 4G should have at least as many", counts[RAT4G], counts[RAT2G])
	}
}

func TestDistrictCountyOfCell(t *testing.T) {
	m, topo := buildTest(t)
	for i := 0; i < len(topo.Cells); i += 17 {
		id := CellID(i)
		d := topo.DistrictOfCell(id)
		c := topo.Towers[topo.Cells[id].Tower].County
		if m.District(d).County != c {
			t.Fatalf("cell %d district/county inconsistent", i)
		}
	}
}

func TestRATStrings(t *testing.T) {
	if RAT2G.String() != "2G" || RAT3G.String() != "3G" || RAT4G.String() != "4G" {
		t.Error("RAT strings wrong")
	}
}

func TestZeroConfigFallsBack(t *testing.T) {
	m := census.BuildUK(1)
	topo := Build(m, Config{}, 1)
	if len(topo.Towers) == 0 {
		t.Fatal("zero config should fall back to defaults")
	}
}
