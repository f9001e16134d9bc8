// Package geo provides the planar coordinate system of the synthetic
// United Kingdom: points in kilometres on a national grid, distances,
// centroids and weighted centres of mass (the quantity the radius of
// gyration is defined against), and simple region geometry.
//
// A planar approximation is appropriate here: the paper's radius of
// gyration is computed over cell-tower coordinates at the scale of daily
// human mobility (a few to a few hundred kilometres), where the error of a
// projected plane versus great-circle distance is negligible for the
// shape-level results we reproduce.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the national grid, in kilometres east (X) and
// north (Y) of the grid origin.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q in kilometres.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared distance (cheaper when only comparing).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Centroid returns the unweighted centroid of pts, or the zero Point if
// pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// CenterOfMass returns the weighted centre of mass of pts with weights w
// (e.g. dwell-time fractions, as in the gyration definition of §2.3).
// Zero or negative weights are ignored; if the total weight is zero the
// unweighted centroid is returned.
func CenterOfMass(pts []Point, w []float64) Point {
	if len(pts) == 0 {
		return Point{}
	}
	if len(w) != len(pts) {
		return Centroid(pts)
	}
	var c Point
	var total float64
	for i, p := range pts {
		wi := w[i]
		if wi <= 0 {
			continue
		}
		c.X += p.X * wi
		c.Y += p.Y * wi
		total += wi
	}
	if total == 0 {
		return Centroid(pts)
	}
	return c.Scale(1 / total)
}

// Rect is an axis-aligned bounding box.
type Rect struct {
	Min, Max Point
}

// Width and Height return the rectangle extents in kilometres.
func (r Rect) Width() float64  { return r.Max.X - r.Min.X }
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Bounds returns the bounding box of pts (zero Rect when empty).
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// Disc is a circular area used to lay out districts and scatter towers.
type Disc struct {
	Center Point
	Radius float64 // km
}

// PointOnRing returns the point at the given angle (radians) and radius
// fraction f (0 centre, 1 rim) of the disc.
func (d Disc) PointOnRing(angle, f float64) Point {
	r := d.Radius * f
	return Point{
		X: d.Center.X + r*math.Cos(angle),
		Y: d.Center.Y + r*math.Sin(angle),
	}
}

// RadiusOfGyration computes the root-mean-squared weighted distance of
// pts from their centre of mass, the exact definition in Eq. (2) of the
// paper with weights w = time fractions:
//
//	g = sqrt( Σ w_j · |l_j − l_cm|² / Σ w_j )
//
// Zero/negative weights are ignored. It returns 0 for empty input.
func RadiusOfGyration(pts []Point, w []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	cm := CenterOfMass(pts, w)
	var num, den float64
	for i, p := range pts {
		wi := 1.0
		if len(w) == len(pts) {
			wi = w[i]
		}
		if wi <= 0 {
			continue
		}
		num += wi * p.Dist2(cm)
		den += wi
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
