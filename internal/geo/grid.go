package geo

import "math"

// Grid is a uniform spatial hash over points, answering nearest-neighbor
// and radius queries in (amortised) constant candidate counts. The radio
// topology uses it for nearest-site lookups and, through Each, for the
// allocation-free reselection scan over thousands of sites.
type Grid struct {
	cell   float64 // cell edge, km
	origin Point
	cols   int
	rows   int
	// buckets[row*cols+col] holds indices into pts.
	buckets [][]int32
	pts     []Point
}

// NewGrid indexes pts with the given cell size (km). Cell sizes at or
// below zero default to a size that yields ~1 point per bucket.
func NewGrid(pts []Point, cellKm float64) *Grid {
	g := &Grid{pts: append([]Point(nil), pts...)}
	if len(pts) == 0 {
		g.cell = 1
		g.cols, g.rows = 1, 1
		g.buckets = make([][]int32, 1)
		return g
	}
	b := Bounds(pts)
	if cellKm <= 0 {
		area := math.Max(b.Width()*b.Height(), 1)
		cellKm = math.Sqrt(area / float64(len(pts)))
		if cellKm <= 0 {
			cellKm = 1
		}
	}
	g.cell = cellKm
	g.origin = b.Min
	g.cols = int(b.Width()/cellKm) + 1
	g.rows = int(b.Height()/cellKm) + 1
	g.buckets = make([][]int32, g.cols*g.rows)
	for i, p := range g.pts {
		idx := g.bucketOf(p)
		g.buckets[idx] = append(g.buckets[idx], int32(i))
	}
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// bucketOf maps a point to its bucket index, clamped to the grid.
func (g *Grid) bucketOf(p Point) int {
	return g.cellOf(p.Y-g.origin.Y, g.rows)*g.cols + g.cellOf(p.X-g.origin.X, g.cols)
}

// cellOf maps an offset from the origin (km) along one axis to a column
// or row in [0, n). It clamps before converting: a float→int conversion
// of an out-of-range value is implementation-defined in Go (MinInt64 on
// amd64), which would turn a huge radius into an empty scan.
func (g *Grid) cellOf(off float64, n int) int {
	return int(min(max(off/g.cell, 0), float64(n-1)))
}

// Nearest returns the index of the closest indexed point to p, and its
// distance. It returns (-1, +Inf) for an empty grid.
func (g *Grid) Nearest(p Point) (int, float64) {
	if len(g.pts) == 0 {
		return -1, math.Inf(1)
	}
	best := -1
	bestD2 := math.Inf(1)
	col := int((p.X - g.origin.X) / g.cell)
	row := int((p.Y - g.origin.Y) / g.cell)
	// Expand rings of buckets until the best candidate cannot be beaten
	// by anything in the next ring.
	for ring := 0; ; ring++ {
		found := false
		for r := row - ring; r <= row+ring; r++ {
			if r < 0 || r >= g.rows {
				continue
			}
			for c := col - ring; c <= col+ring; c++ {
				if c < 0 || c >= g.cols {
					continue
				}
				// Only the ring boundary (inner cells were already
				// scanned in previous rings).
				if ring > 0 && r != row-ring && r != row+ring && c != col-ring && c != col+ring {
					continue
				}
				found = true
				for _, i := range g.buckets[r*g.cols+c] {
					if d2 := g.pts[i].Dist2(p); d2 < bestD2 {
						bestD2 = d2
						best = int(i)
					}
				}
			}
		}
		// Stop when a candidate exists and the next ring's minimum
		// possible distance exceeds it, or the grid is exhausted.
		minNext := float64(ring) * g.cell
		if best >= 0 && minNext*minNext > bestD2 {
			break
		}
		if !found && ring > g.cols+g.rows {
			break
		}
	}
	return best, math.Sqrt(bestD2)
}

// Each calls fn with the index of every point within radiusKm of p,
// bucket by bucket, so a caller that keeps only a running best scans
// the neighbourhood without building a candidate slice. The visit order
// is unspecified.
func (g *Grid) Each(p Point, radiusKm float64, fn func(int32)) {
	if len(g.pts) == 0 || !(radiusKm >= 0) { // NaN visits nothing
		return
	}
	r2 := radiusKm * radiusKm
	minCol, maxCol := g.cellOf(p.X-radiusKm-g.origin.X, g.cols), g.cellOf(p.X+radiusKm-g.origin.X, g.cols)
	minRow, maxRow := g.cellOf(p.Y-radiusKm-g.origin.Y, g.rows), g.cellOf(p.Y+radiusKm-g.origin.Y, g.rows)
	for r := minRow; r <= maxRow; r++ {
		for c := minCol; c <= maxCol; c++ {
			for _, i := range g.buckets[r*g.cols+c] {
				if g.pts[i].Dist2(p) <= r2 {
					fn(i)
				}
			}
		}
	}
}
