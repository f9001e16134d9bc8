package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, 1)
	if got := p.Add(q); got != Pt(4, 5) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := Pt(0, 0).Dist(p); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Pt(0, 0).Dist2(p); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); got != Pt(1, 1) {
		t.Errorf("Centroid = %v", got)
	}
	if got := Centroid(nil); got != Pt(0, 0) {
		t.Errorf("Centroid(nil) = %v", got)
	}
}

func TestCenterOfMass(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	// Three times more weight at the origin.
	got := CenterOfMass(pts, []float64{3, 1})
	if math.Abs(got.X-2.5) > 1e-12 || got.Y != 0 {
		t.Errorf("CenterOfMass = %v", got)
	}
	// Zero/negative weights ignored.
	got = CenterOfMass(pts, []float64{1, -5})
	if got != Pt(0, 0) {
		t.Errorf("negative-weight CoM = %v", got)
	}
	// All-zero weights fall back to the centroid.
	got = CenterOfMass(pts, []float64{0, 0})
	if got != Pt(5, 0) {
		t.Errorf("zero-weight CoM = %v", got)
	}
	// Mismatched weights fall back to the centroid.
	got = CenterOfMass(pts, []float64{1})
	if got != Pt(5, 0) {
		t.Errorf("mismatched CoM = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 2)}
	if r.Width() != 4 || r.Height() != 2 {
		t.Error("extent wrong")
	}
	b := Bounds([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, 4)})
	if b.Min != Pt(-2, 3) || b.Max != Pt(4, 5) {
		t.Errorf("Bounds = %+v", b)
	}
	if Bounds(nil) != (Rect{}) {
		t.Error("Bounds(nil) should be zero")
	}
}

func TestDisc(t *testing.T) {
	d := Disc{Center: Pt(10, 10), Radius: 5}
	p := d.PointOnRing(0, 1)
	if math.Abs(p.X-15) > 1e-12 || math.Abs(p.Y-10) > 1e-9 {
		t.Errorf("PointOnRing = %v", p)
	}
	if got := d.PointOnRing(1.23, 0); got != d.Center {
		t.Errorf("rim fraction 0 should be the centre, got %v", got)
	}
	// All ring points are inside the disc.
	for f := 0.0; f <= 1.0; f += 0.1 {
		for a := 0.0; a < 6.28; a += 0.3 {
			if d.Center.Dist(d.PointOnRing(a, f)) > d.Radius {
				t.Fatalf("ring point outside disc at a=%v f=%v", a, f)
			}
		}
	}
}

func TestRadiusOfGyrationKnown(t *testing.T) {
	// Equal dwell at two points 10 km apart: CoM in the middle, every
	// point 5 km away, so g = 5.
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	if got := RadiusOfGyration(pts, []float64{1, 1}); math.Abs(got-5) > 1e-12 {
		t.Errorf("g = %v, want 5", got)
	}
	// All mass at one point: g = 0.
	if got := RadiusOfGyration(pts, []float64{1, 0}); got != 0 {
		t.Errorf("single-point g = %v", got)
	}
	// No points: 0.
	if got := RadiusOfGyration(nil, nil); got != 0 {
		t.Errorf("empty g = %v", got)
	}
	// Unweighted (nil weights) behaves like equal weights.
	if got := RadiusOfGyration(pts, nil); math.Abs(got-5) > 1e-12 {
		t.Errorf("unweighted g = %v", got)
	}
}

func TestRadiusOfGyrationWeighting(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	// Skewed weights pull the centre of mass toward the heavy point and
	// shrink g below the balanced value.
	g := RadiusOfGyration(pts, []float64{9, 1})
	if g >= 5 || g <= 0 {
		t.Errorf("skewed g = %v, want within (0, 5)", g)
	}
	want := 3.0 // sqrt(0.9·1² + 0.1·9²) = sqrt(9) with CoM at x=1
	if math.Abs(g-want) > 1e-9 {
		t.Errorf("skewed g = %v, want %v", g, want)
	}
}

func TestGyrationInvariances(t *testing.T) {
	pts := []Point{Pt(1, 2), Pt(4, 6), Pt(-3, 0), Pt(10, -2)}
	w := []float64{1, 2, 3, 4}
	g := RadiusOfGyration(pts, w)

	// Translation invariance.
	moved := make([]Point, len(pts))
	for i, p := range pts {
		moved[i] = p.Add(Pt(100, -50))
	}
	if got := RadiusOfGyration(moved, w); math.Abs(got-g) > 1e-9 {
		t.Errorf("translation changed g: %v vs %v", got, g)
	}
	// Weight-scaling invariance.
	w2 := []float64{2, 4, 6, 8}
	if got := RadiusOfGyration(pts, w2); math.Abs(got-g) > 1e-9 {
		t.Errorf("weight scaling changed g: %v vs %v", got, g)
	}
	// Spatial scaling scales g linearly.
	scaled := make([]Point, len(pts))
	for i, p := range pts {
		scaled[i] = p.Scale(3)
	}
	if got := RadiusOfGyration(scaled, w); math.Abs(got-3*g) > 1e-9 {
		t.Errorf("spatial scaling: %v vs %v", got, 3*g)
	}
}

func TestGyrationNonNegativeProperty(t *testing.T) {
	f := func(raw [][3]float64) bool {
		pts := make([]Point, 0, len(raw))
		w := make([]float64, 0, len(raw))
		for _, r := range raw {
			for _, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
					return true
				}
			}
			pts = append(pts, Pt(r[0], r[1]))
			w = append(w, math.Abs(r[2]))
		}
		g := RadiusOfGyration(pts, w)
		return g >= 0 && !math.IsNaN(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax+ay+bx+by) || math.IsInf(ax+ay+bx+by, 0) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a) && a.Dist(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
