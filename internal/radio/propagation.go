package radio

import (
	"math"

	"repro/internal/census"
	"repro/internal/geo"
)

// Environment classifies the radio propagation environment of a
// district; it selects the path-loss exponent of the log-distance model.
type Environment int

// Propagation environments.
const (
	EnvDenseUrban Environment = iota
	EnvUrban
	EnvSuburban
	EnvRural
)

// EnvironmentOf derives the environment from a district's
// geodemographic cluster (dense clutter in city centres, open terrain in
// the countryside).
func EnvironmentOf(d *census.District) Environment {
	switch d.Cluster {
	case census.Cosmopolitans, census.EthnicityCentral:
		return EnvDenseUrban
	case census.MulticulturalMetropolitans, census.ConstrainedCityDwellers:
		return EnvUrban
	case census.Urbanites, census.Suburbanites, census.HardPressedLiving:
		return EnvSuburban
	default:
		return EnvRural
	}
}

// pathLossExponent returns the log-distance exponent per environment.
func pathLossExponent(e Environment) float64 {
	switch e {
	case EnvDenseUrban:
		return 3.8
	case EnvUrban:
		return 3.5
	case EnvSuburban:
		return 3.2
	default:
		return 2.9
	}
}

// Propagation constants of the simplified link budget.
const (
	// refLossDB is the path loss at the 0.1 km reference distance
	// (~2 GHz macro cell).
	refLossDB = 95.0
	refDistKm = 0.1
	// txPowerDBm is the cell's transmit power incl. antenna gain.
	txPowerDBm = 46.0
	// minServableDBm is the receive level below which a tower cannot
	// serve at all.
	minServableDBm = -125.0
)

// PathLossDB returns the log-distance path loss in dB at distKm in the
// given environment. Distances below the reference are clamped.
func PathLossDB(distKm float64, env Environment) float64 {
	if distKm < refDistKm {
		distKm = refDistKm
	}
	return refLossDB + 10*pathLossExponent(env)*math.Log10(distKm/refDistKm)
}

// RxPowerDBm returns the median-link received power from a tower at
// point p.
func (t *Topology) RxPowerDBm(tw TowerID, p geo.Point) float64 {
	tower := t.Tower(tw)
	env := EnvironmentOf(t.model.District(tower.District))
	return txPowerDBm - PathLossDB(tower.Loc.Dist(p), env)
}

// reachKm bounds the reselection scan: towers farther than this from
// the query point are never candidates.
const reachKm = 20.0

// firstReachKm is the radius of the first, short reselection pass. In a
// deployed area it nearly always hears an alternative loud enough to
// bound the second pass well inside reachKm.
const firstReachKm = 2.0

// ReselectionNeighbor returns the best alternate server at p other than
// the given tower — the cell an idle phone camped at p bounces to. A
// tower is audible when its median-link level reaches the servable
// floor; among the audible towers within reachKm other than exclude,
// the highest level wins and a tie goes to the lower TowerID. It returns
// exclude when no alternative is audible, and the nearest tower when
// nothing at all is audible.
//
// The scan is bounded in two passes. The first covers firstReachKm; if
// it hears an alternative at level bestRx, no tower farther than
// farthestReaching(bestRx) can match it, so the second pass covers only
// that far (and is skipped when that is no farther than the first).
// The winner, ties included, is the one the full reachKm scan picks.
// Only when the first pass hears no alternative is the whole of reachKm
// scanned. A call allocates nothing and concurrent calls share no state.
func (t *Topology) ReselectionNeighbor(p geo.Point, exclude TowerID) TowerID {
	best, bestRx, _ := t.strongestOther(p, exclude, firstReachKm)
	if best >= 0 {
		far := farthestReaching(bestRx)
		if far <= firstReachKm {
			return best
		}
		best, _, _ = t.strongestOther(p, exclude, min(far, reachKm))
		return best
	}
	best, _, heard := t.strongestOther(p, exclude, reachKm)
	switch {
	case best >= 0:
		return best
	case heard:
		return exclude
	default:
		return t.NearestTower(p)
	}
}

// strongestOther scans the towers within radiusKm of p and returns the
// audible one other than exclude with the highest level (ties to the
// lower TowerID; -1 if none), its level, and whether any tower at all,
// exclude included, is audible there. The argmax does not depend on the
// grid's visit order.
func (t *Topology) strongestOther(p geo.Point, exclude TowerID, radiusKm float64) (best TowerID, bestRx float64, heard bool) {
	best, bestRx = -1, math.Inf(-1)
	t.grid.Each(p, radiusKm, func(i int32) {
		tw := TowerID(i)
		rx := t.RxPowerDBm(tw, p)
		if rx < minServableDBm {
			return
		}
		heard = true
		if tw == exclude {
			return
		}
		if rx > bestRx || (rx == bestRx && tw < best) {
			best, bestRx = tw, rx
		}
	})
	return best, bestRx, heard
}

// farthestReaching returns a distance beyond which no tower, in any
// environment, is received at rxDBm or above. It inverts the path loss
// with the smallest exponent, EnvRural's (no environment's loss grows
// more slowly with distance; TestPathLossEnvironmentOrdering pins the
// order), and widens the result by a relative 1e-6, so every
// tower beyond it falls short of rxDBm by at least 29·log10(1+1e-6)
// ≈ 1.3e-5 dB, far above the rounding error of a level: such a tower
// can neither beat nor tie rxDBm.
func farthestReaching(rxDBm float64) float64 {
	n := pathLossExponent(EnvRural)
	return refDistKm * math.Pow(10, (txPowerDBm-rxDBm-refLossDB)/(10*n)) * (1 + 1e-6)
}
