package popsim

import (
	"math"
	"testing"

	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/rng"
)

// oracleNearestDistrict is the linear scan nearestDistrict replaced:
// every district, the preferred county's distances scaled by 0.8, ties
// to the lowest index.
func oracleNearestDistrict(m *census.Model, pt geo.Point, prefer census.CountyID) census.DistrictID {
	best := census.DistrictID(0)
	bestDist := math.Inf(1)
	for i := range m.Districts {
		d := &m.Districts[i]
		dd := d.Area.Center.Dist(pt)
		if d.County == prefer {
			dd *= 0.8
		}
		if dd < bestDist {
			bestDist = dd
			best = d.ID
		}
	}
	return best
}

// nearestWorker is a synthesis worker over m with only the tables
// nearestDistrict reads.
func nearestWorker(m *census.Model) *synthWorker {
	return &synthWorker{p: &Population{model: m}, tables: newDrawTables(m)}
}

// TestNearestDistrictMatches checks the grid query against the linear
// scan for every county as the preferred one, at random points (some
// well outside the districts' bounding box) and at points between every
// pair of district centres where their distances, plain or scaled, tie.
func TestNearestDistrictMatches(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		m := census.BuildUK(seed)
		w := nearestWorker(m)
		centres := make([]geo.Point, len(m.Districts))
		for i := range m.Districts {
			centres[i] = m.Districts[i].Area.Center
		}
		box := geo.Bounds(centres)
		var targets []geo.Point
		src := rng.New(seed)
		for range 500 {
			targets = append(targets, geo.Pt(
				src.Range(box.Min.X-200, box.Max.X+200),
				src.Range(box.Min.Y-200, box.Max.Y+200)))
		}
		for i := range centres {
			for j := range centres {
				// The midpoint ties two districts of one side of the
				// county line; the point 1/1.8 of the way from i to j
				// ties i's scaled distance with j's plain one.
				a, b := centres[i], centres[j]
				if j > i {
					targets = append(targets, geo.Pt((a.X+b.X)/2, (a.Y+b.Y)/2))
				}
				if j != i {
					targets = append(targets, geo.Pt(a.X+(b.X-a.X)/1.8, a.Y+(b.Y-a.Y)/1.8))
				}
			}
		}
		for ci := range m.Counties {
			prefer := census.CountyID(ci)
			for _, pt := range targets {
				if got, want := w.nearestDistrict(pt, prefer), oracleNearestDistrict(m, pt, prefer); got != want {
					t.Fatalf("seed %d county %d point %v: district %d, oracle %d", seed, ci, pt, got, want)
				}
			}
		}
	}
}

// TestNearestDistrictAllocatesNothing pins the query at zero
// allocations.
func TestNearestDistrictAllocatesNothing(t *testing.T) {
	m := census.BuildUK(1)
	w := nearestWorker(m)
	src := rng.New(3)
	var sink census.DistrictID
	if n := testing.AllocsPerRun(1000, func() {
		pt := geo.Pt(src.Range(0, 700), src.Range(0, 1000))
		sink = w.nearestDistrict(pt, census.CountyID(src.Intn(len(m.Counties))))
	}); n != 0 {
		t.Errorf("%v allocs per query, want 0", n)
	}
	_ = sink
}
