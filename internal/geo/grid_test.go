package geo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomPoints generates n deterministic points in a box.
func randomPoints(n int, seed uint64) []Point {
	src := rng.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(src.Range(0, 700), src.Range(0, 1000))
	}
	return pts
}

// bruteNearest is the reference implementation.
func bruteNearest(pts []Point, p Point) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, q := range pts {
		if d2 := q.Dist2(p); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, math.Sqrt(bestD2)
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 1)
	g := NewGrid(pts, 25)
	src := rng.New(2)
	for i := 0; i < 300; i++ {
		q := Pt(src.Range(-50, 750), src.Range(-50, 1050))
		gi, gd := g.Nearest(q)
		bi, bd := bruteNearest(pts, q)
		if gi != bi && math.Abs(gd-bd) > 1e-9 {
			t.Fatalf("query %v: grid (%d, %v) vs brute (%d, %v)", q, gi, gd, bi, bd)
		}
	}
}

func TestGridNearestAutoCell(t *testing.T) {
	pts := randomPoints(200, 3)
	g := NewGrid(pts, 0) // auto cell size
	for i, p := range pts {
		gi, gd := g.Nearest(p)
		if gd > 1e-9 {
			t.Fatalf("point %d: self-query distance %v", i, gd)
		}
		if pts[gi].Dist(p) > 1e-9 {
			t.Fatalf("point %d: wrong self match", i)
		}
	}
}

// collectEach gathers the indices Each visits, in visit order.
func collectEach(g *Grid, p Point, radiusKm float64) []int32 {
	var got []int32
	g.Each(p, radiusKm, func(i int32) { got = append(got, i) })
	return got
}

func TestGridEachMatchesBruteForce(t *testing.T) {
	pts := randomPoints(400, 4)
	g := NewGrid(pts, 30)
	src := rng.New(5)
	for i := 0; i < 100; i++ {
		q := Pt(src.Range(0, 700), src.Range(0, 1000))
		radius := src.Range(5, 120)
		got := collectEach(g, q, radius)
		want := map[int32]bool{}
		for j, p := range pts {
			if p.Dist(q) <= radius {
				want[int32(j)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v r=%v: %d visits, want %d", q, radius, len(got), len(want))
		}
		seen := map[int32]bool{}
		for _, idx := range got {
			if !want[idx] {
				t.Fatalf("false positive %d", idx)
			}
			if seen[idx] {
				t.Fatalf("index %d visited twice", idx)
			}
			seen[idx] = true
		}
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := NewGrid(nil, 10)
	if g.Len() != 0 {
		t.Error("empty grid length")
	}
	if i, d := g.Nearest(Pt(1, 2)); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty Nearest = %d, %v", i, d)
	}
	if got := collectEach(g, Pt(0, 0), 10); len(got) != 0 {
		t.Error("empty Each visited points")
	}
	// All points identical.
	same := []Point{Pt(5, 5), Pt(5, 5), Pt(5, 5)}
	g2 := NewGrid(same, 0)
	if i, d := g2.Nearest(Pt(5, 5)); i < 0 || d > 1e-9 {
		t.Errorf("identical-point Nearest = %d, %v", i, d)
	}
	if got := collectEach(g2, Pt(5, 5), 0.1); len(got) != 3 {
		t.Errorf("identical-point Each visited %d", len(got))
	}
	// Negative radius.
	if got := collectEach(g2, Pt(5, 5), -1); len(got) != 0 {
		t.Error("negative radius visited points")
	}
}

func TestGridNearestProperty(t *testing.T) {
	pts := randomPoints(150, 6)
	g := NewGrid(pts, 40)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e4 || math.Abs(y) > 1e4 {
			return true
		}
		q := Pt(x, y)
		gi, _ := g.Nearest(q)
		bi, _ := bruteNearest(pts, q)
		return pts[gi].Dist(q) <= pts[bi].Dist(q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGridEachHugeRadius checks that radii beyond the int range visit
// every point (the column and row bounds used to convert to MinInt64
// and visit none), and that a NaN radius visits none.
func TestGridEachHugeRadius(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(-7, 12)}
	g := NewGrid(pts, 2)
	for _, r := range []float64{1e18, 1e30, math.MaxFloat64, math.Inf(1)} {
		if got := collectEach(g, Pt(1, 1), r); len(got) != len(pts) {
			t.Errorf("radius %g visited %d of %d points", r, len(got), len(pts))
		}
	}
	if got := collectEach(g, Pt(1, 1), math.NaN()); len(got) != 0 {
		t.Errorf("NaN radius visited %d points", len(got))
	}
}

// TestGridNearestFarAway checks queries far outside the grid: every one
// gets the brute-force nearest distance (the ring scan used to give up
// after cols+rows rings and return -1 beyond that), and a query at an
// infinite or NaN coordinate still gets an index.
func TestGridNearestFarAway(t *testing.T) {
	grids := map[string][]Point{
		"3 points":   {Pt(0, 0), Pt(3, 4), Pt(-7, 12)},
		"500 points": randomPoints(500, 7),
	}
	inf := math.Inf(1)
	for name, pts := range grids {
		g := NewGrid(pts, 2)
		for _, q := range []Point{
			Pt(1e6, 0), Pt(-1e6, 3), Pt(0, 1e6), Pt(5, -1e6), Pt(1e6, -1e6),
			Pt(1e12, 0), Pt(-1e12, 7), Pt(3, 1e12), Pt(-1e12, -1e12),
		} {
			gi, gd := g.Nearest(q)
			_, bd := bruteNearest(pts, q)
			if gi < 0 || gd != bd || pts[gi].Dist(q) != bd {
				t.Errorf("%s: Nearest(%v) = %d, %v; brute-force distance %v", name, q, gi, gd, bd)
			}
		}
		for _, q := range []Point{Pt(inf, 0), Pt(-inf, 0), Pt(0, inf), Pt(0, -inf), Pt(inf, -inf)} {
			if gi, gd := g.Nearest(q); gi < 0 || gi >= len(pts) || !math.IsInf(gd, 1) {
				t.Errorf("%s: Nearest(%v) = %d, %v; want an index at +Inf", name, q, gi, gd)
			}
		}
		if gi, _ := g.Nearest(Pt(math.NaN(), 1)); gi < 0 || gi >= len(pts) {
			t.Errorf("%s: Nearest(NaN, 1) = %d, want an index", name, gi)
		}
	}
}

// TestGridBucketsInIndexOrder checks the counting-sort construction:
// every point sits in exactly the bucket bucketOf maps it to, each
// bucket lists its points in ascending index order (the order the
// tie-breaks of Nearest see), and no bucket has spare capacity.
func TestGridBucketsInIndexOrder(t *testing.T) {
	pts := randomPoints(700, 3)
	pts = append(pts, pts[5], pts[5]) // coincident points share a bucket
	g := NewGrid(pts, 30)
	seen := 0
	for b, bucket := range g.buckets {
		if cap(bucket) != len(bucket) {
			t.Fatalf("bucket %d: cap %d, len %d", b, cap(bucket), len(bucket))
		}
		for k, i := range bucket {
			if g.bucketOf(pts[i]) != b {
				t.Fatalf("point %d in bucket %d, belongs in %d", i, b, g.bucketOf(pts[i]))
			}
			if k > 0 && bucket[k-1] >= i {
				t.Fatalf("bucket %d out of index order: %v", b, bucket)
			}
		}
		seen += len(bucket)
	}
	if seen != len(pts) {
		t.Fatalf("buckets hold %d points, want %d", seen, len(pts))
	}
}
