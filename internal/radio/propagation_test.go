package radio

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/rng"
)

func TestPathLossMonotone(t *testing.T) {
	for env := EnvDenseUrban; env <= EnvRural; env++ {
		prev := -1.0
		for d := 0.1; d < 30; d *= 1.5 {
			pl := PathLossDB(d, env)
			if pl <= prev {
				t.Fatalf("path loss not increasing at %v km (%v)", d, env)
			}
			prev = pl
		}
	}
	// Reference clamp: anything below the reference distance equals the
	// reference loss.
	if PathLossDB(0.01, EnvUrban) != PathLossDB(0.1, EnvUrban) {
		t.Error("sub-reference distances should clamp")
	}
}

func TestPathLossEnvironmentOrdering(t *testing.T) {
	// At any distance beyond the reference, denser clutter loses more.
	for _, d := range []float64{0.5, 2, 10} {
		du := PathLossDB(d, EnvDenseUrban)
		u := PathLossDB(d, EnvUrban)
		su := PathLossDB(d, EnvSuburban)
		r := PathLossDB(d, EnvRural)
		if !(du > u && u > su && su > r) {
			t.Fatalf("environment ordering broken at %v km: %v %v %v %v", d, du, u, su, r)
		}
	}
}

func TestEnvironmentOf(t *testing.T) {
	m := census.BuildUK(1)
	ec := districtByCode(t, m, "EC")
	if EnvironmentOf(ec) != EnvDenseUrban {
		t.Error("EC should be dense urban")
	}
	found := false
	for i := range m.Districts {
		if m.Districts[i].Cluster == census.RuralResidents {
			if EnvironmentOf(&m.Districts[i]) != EnvRural {
				t.Error("rural district not rural environment")
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no rural district")
	}
}

// server is one audible tower with its median-link receive level.
type server struct {
	tower TowerID
	rxDBm float64
}

// strongestServers is the sort-based reference the streaming
// ReselectionNeighbor scan replaced: the k strongest audible towers
// within reachKm of p, by descending level with ties to the lower
// TowerID, or the nearest tower alone when nothing is audible. It finds
// the candidates by brute force over every tower, independently of the
// grid index.
func strongestServers(topo *Topology, p geo.Point, k int) []server {
	var servers []server
	for i := range topo.Towers {
		tw := &topo.Towers[i]
		if tw.Loc.Dist2(p) > reachKm*reachKm {
			continue
		}
		if rx := topo.RxPowerDBm(tw.ID, p, nil); rx >= minServableDBm {
			servers = append(servers, server{tw.ID, rx})
		}
	}
	if len(servers) == 0 {
		nearest := topo.NearestTower(p)
		return []server{{nearest, topo.RxPowerDBm(nearest, p, nil)}}
	}
	sort.Slice(servers, func(i, j int) bool {
		if servers[i].rxDBm != servers[j].rxDBm {
			return servers[i].rxDBm > servers[j].rxDBm
		}
		return servers[i].tower < servers[j].tower
	})
	if len(servers) > k {
		servers = servers[:k]
	}
	return servers
}

// referenceReselection is the pre-scan ReselectionNeighbor: the first of
// the three strongest servers that is not exclude, else exclude.
func referenceReselection(topo *Topology, p geo.Point, exclude TowerID) TowerID {
	for _, s := range strongestServers(topo, p, 3) {
		if s.tower != exclude {
			return s.tower
		}
	}
	return exclude
}

// TestReselectionNeighborMatchesReference checks the streaming scan
// against the sort-based reference for every tower, at four offsets from
// the site and with two excludes each: the tower itself and the
// reference's strongest server there (or the next tower when that is the
// tower itself). It logs how many queries have an exact level tie in
// the reference's top three, which is what exercises the TowerID
// tie-break.
func TestReselectionNeighborMatchesReference(t *testing.T) {
	offsets := []geo.Point{geo.Pt(0, 0), geo.Pt(0.7, -0.4), geo.Pt(-3, 5), geo.Pt(15, 15)}
	for _, seed := range []uint64{1, 3, 7, 42} {
		topo := Build(census.BuildUK(seed), DefaultConfig(), seed)
		queries, ties := 0, 0
		for i := range topo.Towers {
			tw := &topo.Towers[i]
			for _, off := range offsets {
				p := tw.Loc.Add(off)
				top := strongestServers(topo, p, 3)
				for j := 1; j < len(top); j++ {
					if top[j].rxDBm == top[j-1].rxDBm {
						ties++
						break
					}
				}
				other := top[0].tower
				if other == tw.ID {
					other = TowerID((i + 1) % len(topo.Towers))
				}
				for _, exclude := range []TowerID{tw.ID, other} {
					queries++
					got := topo.ReselectionNeighbor(p, exclude)
					if want := referenceReselection(topo, p, exclude); got != want {
						t.Fatalf("seed %d tower %d offset %v exclude %d: scan %d, reference %d",
							seed, tw.ID, off, exclude, got, want)
					}
				}
			}
		}
		t.Logf("seed %d: %d queries agree; %d points tie exactly in the top three", seed, queries, ties)
	}
}

// TestReselectionNeighborRemoteFallback: at a point in the middle of the
// sea nothing is audible, so the scan falls back to the nearest site,
// whatever is excluded.
func TestReselectionNeighborRemoteFallback(t *testing.T) {
	topo := Build(census.BuildUK(1), DefaultConfig(), 1)
	p := geo.Pt(-500, -500)
	nearest := topo.NearestTower(p)
	for _, exclude := range []TowerID{nearest, (nearest + 1) % TowerID(len(topo.Towers))} {
		if got := topo.ReselectionNeighbor(p, exclude); got != nearest {
			t.Errorf("exclude %d: remote fallback %d, want nearest %d", exclude, got, nearest)
		}
		if want := referenceReselection(topo, p, exclude); want != nearest {
			t.Errorf("exclude %d: reference fallback %d, want nearest %d", exclude, want, nearest)
		}
	}
}

// TestReselectionNeighborAllocs pins the scan allocation-free, at a site
// with hundreds of candidates and at the remote fallback.
func TestReselectionNeighborAllocs(t *testing.T) {
	topo := Build(census.BuildUK(1), DefaultConfig(), 1)
	for _, p := range []geo.Point{topo.Towers[10].Loc, geo.Pt(-500, -500)} {
		allocs := testing.AllocsPerRun(50, func() {
			topo.ReselectionNeighbor(p, 10)
		})
		if allocs != 0 {
			t.Errorf("ReselectionNeighbor at %v allocates %.1f times per call, want 0", p, allocs)
		}
	}
}

// TestReselectionNeighborConcurrent runs the scan from several
// goroutines over one shared Topology, as sweep workers do: every result
// must equal the serial one (run with -race to check the sharing).
func TestReselectionNeighborConcurrent(t *testing.T) {
	topo := Build(census.BuildUK(1), DefaultConfig(), 1)
	want := make([]TowerID, len(topo.Towers))
	for i := range topo.Towers {
		want[i] = topo.ReselectionNeighbor(topo.Towers[i].Loc, topo.Towers[i].ID)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range topo.Towers {
				if got := topo.ReselectionNeighbor(topo.Towers[i].Loc, topo.Towers[i].ID); got != want[i] {
					t.Errorf("tower %d: concurrent %d, serial %d", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReselectionNeighbor(t *testing.T) {
	m := census.BuildUK(1)
	topo := Build(m, DefaultConfig(), 1)
	hits := 0
	for i := 0; i < len(topo.Towers); i += 53 {
		tw := &topo.Towers[i]
		alt := topo.ReselectionNeighbor(tw.Loc, tw.ID)
		if alt != tw.ID {
			hits++
			// The neighbour must be audible at the location.
			if topo.RxPowerDBm(alt, tw.Loc, nil) < minServableDBm {
				t.Fatalf("reselection neighbour inaudible")
			}
		}
	}
	if hits == 0 {
		t.Error("no tower has any reselection neighbour — estate too sparse?")
	}
}

func TestShadowingDeterministic(t *testing.T) {
	m := census.BuildUK(1)
	topo := Build(m, DefaultConfig(), 1)
	p := topo.Towers[3].Loc.Add(geo.Pt(1, 1))
	a := topo.RxPowerDBm(3, p, rng.New(7))
	b := topo.RxPowerDBm(3, p, rng.New(7))
	if a != b {
		t.Error("shadowing not deterministic for identical streams")
	}
	med := topo.RxPowerDBm(3, p, nil)
	if math.Abs(a-med) > 4*shadowingStdDB {
		t.Errorf("shadowed level %v implausibly far from median %v", a, med)
	}
}
