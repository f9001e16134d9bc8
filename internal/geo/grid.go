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
// below zero default to a size that yields ~1 point per bucket. The
// grid takes ownership of pts: it keeps the slice, not a copy, so the
// caller must not modify it afterwards.
func NewGrid(pts []Point, cellKm float64) *Grid {
	g := &Grid{pts: pts}
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
	// Counting sort: size every bucket first, then cut them all as
	// capacity-clipped views of one array, each in ascending index order.
	nb := g.cols * g.rows
	end := make([]int32, nb)
	for _, p := range g.pts {
		end[g.bucketOf(p)]++
	}
	var n int32
	for b, c := range end {
		n += c
		end[b] = n
	}
	flat := make([]int32, len(g.pts))
	g.buckets = make([][]int32, nb)
	for b := range g.buckets {
		lo := int32(0)
		if b > 0 {
			lo = end[b-1]
		}
		g.buckets[b] = flat[lo:lo:end[b]]
	}
	for i, p := range g.pts {
		b := g.bucketOf(p)
		g.buckets[b] = append(g.buckets[b], int32(i))
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
// amd64), which would turn a huge radius into an empty scan. A NaN
// offset maps to 0.
func (g *Grid) cellOf(off float64, n int) int {
	c := off / g.cell
	if !(c > 0) {
		return 0
	}
	return int(min(c, float64(n-1)))
}

// Nearest returns the index of the closest indexed point to p, and its
// distance. It returns (-1, +Inf) for an empty grid only: a point far
// outside the grid, even at an infinite coordinate, still gets an
// index.
func (g *Grid) Nearest(p Point) (int, float64) {
	if len(g.pts) == 0 {
		return -1, math.Inf(1)
	}
	ox, oy := p.X-g.origin.X, p.Y-g.origin.Y
	col, row := g.cellOf(ox, g.cols), g.cellOf(oy, g.rows)
	best := -1
	bestD2 := math.Inf(1)
	// Scan square rings of buckets around p's cell, clamped to the grid,
	// until nothing left unscanned can beat the best candidate.
	for ring := 0; ; ring++ {
		c0, c1 := max(col-ring, 0), min(col+ring, g.cols-1)
		r0, r1 := max(row-ring, 0), min(row+ring, g.rows-1)
		for r := r0; r <= r1; r++ {
			if ring == 0 || r == row-ring || r == row+ring {
				for c := c0; c <= c1; c++ {
					best, bestD2 = g.closest(r*g.cols+c, p, best, bestD2)
				}
				continue
			}
			// Only the ring boundary: inner cells were scanned by earlier
			// rings.
			if c := col - ring; c >= 0 {
				best, bestD2 = g.closest(r*g.cols+c, p, best, bestD2)
			}
			if c := col + ring; c < g.cols {
				best, bestD2 = g.closest(r*g.cols+c, p, best, bestD2)
			}
		}
		if c0 == 0 && c1 == g.cols-1 && r0 == 0 && r1 == g.rows-1 {
			break // every bucket scanned
		}
		// Every unscanned bucket lies past a side of the scanned box that
		// has not reached the grid's edge; the nearest such side bounds
		// how close any of its points can be.
		next := math.Inf(1)
		if c0 > 0 {
			next = min(next, ox-float64(c0)*g.cell)
		}
		if c1 < g.cols-1 {
			next = min(next, float64(c1+1)*g.cell-ox)
		}
		if r0 > 0 {
			next = min(next, oy-float64(r0)*g.cell)
		}
		if r1 < g.rows-1 {
			next = min(next, float64(r1+1)*g.cell-oy)
		}
		if best >= 0 && next*next > bestD2 {
			break
		}
	}
	return best, math.Sqrt(bestD2)
}

// closest folds bucket i's points into the running best (index and
// squared distance) of a Nearest query for p. The first point scanned
// is taken even at an infinite distance.
func (g *Grid) closest(i int, p Point, best int, bestD2 float64) (int, float64) {
	for _, j := range g.buckets[i] {
		if d2 := g.pts[j].Dist2(p); d2 < bestD2 || best < 0 {
			best, bestD2 = int(j), d2
		}
	}
	return best, bestD2
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
