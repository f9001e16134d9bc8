package radio

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/geo"
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
		if rx := topo.RxPowerDBm(tw.ID, p); rx >= minServableDBm {
			servers = append(servers, server{tw.ID, rx})
		}
	}
	if len(servers) == 0 {
		nearest := topo.NearestTower(p)
		return []server{{nearest, topo.RxPowerDBm(nearest, p)}}
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

// reselectionBranch names the branch of ReselectionNeighbor's bounded
// scan that answers the query at p: "first" when the first pass decides
// alone, "second" when a second pass out to farthestReaching runs,
// "full" when the first pass hears no alternative and the whole of
// reachKm is scanned, and "remote" when nothing is audible at all.
func reselectionBranch(topo *Topology, p geo.Point, exclude TowerID) string {
	best, rx, _ := topo.strongestOther(p, exclude, firstReachKm)
	if best >= 0 {
		if farthestReaching(rx) <= firstReachKm {
			return "first"
		}
		return "second"
	}
	if _, _, heard := topo.strongestOther(p, exclude, reachKm); heard {
		return "full"
	}
	return "remote"
}

// probe is one query point of TestReselectionNeighborMatchesReference,
// with the site it was placed around (-1 for none).
type probe struct {
	p    geo.Point
	site TowerID
}

// reselectionProbes returns the query points of
// TestReselectionNeighborMatchesReference: every tower at four offsets
// from the site, the rim and outskirts of every Rural Residents district
// (sparse estates, where the first pass often hears nothing), and two
// points out at sea (nothing audible).
func reselectionProbes(topo *Topology) []probe {
	var probes []probe
	offsets := []geo.Point{geo.Pt(0, 0), geo.Pt(0.7, -0.4), geo.Pt(-3, 5), geo.Pt(15, 15)}
	for i := range topo.Towers {
		for _, off := range offsets {
			probes = append(probes, probe{topo.Towers[i].Loc.Add(off), topo.Towers[i].ID})
		}
	}
	m := topo.Model()
	for i := range m.Districts {
		d := &m.Districts[i]
		if d.Cluster != census.RuralResidents {
			continue
		}
		for k := 0; k < 8; k++ {
			angle := float64(k) * math.Pi / 4
			for _, f := range []float64{0.6, 1, 1.5} {
				probes = append(probes, probe{d.Area.PointOnRing(angle, f), -1})
			}
		}
	}
	return append(probes, probe{geo.Pt(-500, -500), -1}, probe{geo.Pt(2000, 40), -1})
}

// TestReselectionNeighborMatchesReference checks the bounded scan
// against the sort-based reference, which ranks every tower within
// reachKm, at the reselectionProbes points of six worlds. Each point is
// queried excluding the strongest tower there, the next tower after it,
// and the site the point was placed around, if any.
// It counts the queries answered by each branch of the scan and fails if
// any branch goes untested, and logs how many points have an exact
// level tie in the reference's top three, which is what exercises the
// TowerID tie-break.
func TestReselectionNeighborMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 3, 7, 11, 23, 42} {
		topo := Build(census.BuildUK(seed), DefaultConfig(), seed)
		queries, ties := 0, 0
		branches := map[string]int{"first": 0, "second": 0, "full": 0, "remote": 0}
		for _, pr := range reselectionProbes(topo) {
			p := pr.p
			top := strongestServers(topo, p, 3)
			for j := 1; j < len(top); j++ {
				if top[j].rxDBm == top[j-1].rxDBm {
					ties++
					break
				}
			}
			strongest := top[0].tower
			next := (strongest + 1) % TowerID(len(topo.Towers))
			excludes := []TowerID{strongest, next}
			if pr.site >= 0 && pr.site != strongest && pr.site != next {
				excludes = append(excludes, pr.site)
			}
			for _, exclude := range excludes {
				queries++
				branches[reselectionBranch(topo, p, exclude)]++
				got := topo.ReselectionNeighbor(p, exclude)
				if want := referenceReselection(topo, p, exclude); got != want {
					t.Fatalf("seed %d point %v exclude %d: scan %d, reference %d",
						seed, p, exclude, got, want)
				}
			}
		}
		for b, n := range branches {
			if n == 0 {
				t.Errorf("seed %d: no query ends in the %q branch", seed, b)
			}
		}
		t.Logf("seed %d: %d queries agree (branches %v); %d points tie exactly in the top three",
			seed, queries, branches, ties)
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
			if topo.RxPowerDBm(alt, tw.Loc) < minServableDBm {
				t.Fatalf("reselection neighbour inaudible")
			}
		}
	}
	if hits == 0 {
		t.Error("no tower has any reselection neighbour — estate too sparse?")
	}
}
