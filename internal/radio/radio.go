// Package radio models the MNO's radio access network topology: cell
// sites (towers) deployed over the synthetic UK, their sectors and cells
// per radio access technology (2G/3G/4G), and the activation days of new
// sites, the structural changes the paper's daily topology snapshot
// accounts for (§2.2, "Radio Network Topology").
//
// Deployment density follows demand: towers per district scale with the
// district's resident population plus its day-visitor attraction, which
// is how central business districts (EC/WC in London) end up with far
// more radio capacity per resident than residential districts — exactly
// the configuration in which the paper observes their traffic collapse.
package radio

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// RAT is a Radio Access Technology generation.
type RAT int

// Supported RATs, in generation order.
const (
	RAT2G RAT = iota
	RAT3G
	RAT4G
	NumRATs = int(RAT4G) + 1
)

// String implements fmt.Stringer.
func (r RAT) String() string {
	switch r {
	case RAT2G:
		return "2G"
	case RAT3G:
		return "3G"
	case RAT4G:
		return "4G"
	default:
		return fmt.Sprintf("RAT(%d)", int(r))
	}
}

// TowerID identifies a cell site.
type TowerID int32

// CellID identifies a single cell (one RAT carrier on one sector).
type CellID int32

// Tower is a cell site: a physical location hosting antennas for one or
// more RATs, split into sectors.
type Tower struct {
	ID       TowerID
	District census.DistrictID
	County   census.CountyID
	Loc      geo.Point
	Sectors  int
	HasRAT   [NumRATs]bool
	// ActivationDay is the first simulated day the site is on air;
	// 0 for the pre-existing estate, later for new deployments.
	ActivationDay timegrid.SimDay
}

// ActiveOn reports whether the site is on air on the given day.
func (t *Tower) ActiveOn(d timegrid.SimDay) bool { return d >= t.ActivationDay }

// Cell is one RAT carrier on one sector of a tower; the KPI feed of §2.4
// is generated per 4G cell.
type Cell struct {
	ID     CellID
	Tower  TowerID
	RAT    RAT
	Sector int
}

// Config controls topology construction.
type Config struct {
	// PopPerTower is the effective population served per site; smaller
	// values build denser networks. The effective population of a
	// district is its residents plus VisitorPopUnit per unit of
	// day-visitor weight.
	PopPerTower int
	// VisitorPopUnit converts a district's DayVisitorWeight into an
	// effective population for dimensioning.
	VisitorPopUnit int
	// SectorsPerTower is the number of sectors per site (typically 3).
	SectorsPerTower int
	// NewSiteFraction is the fraction of sites that come on air during
	// the simulated window rather than pre-existing (models the paper's
	// "potential structural changes in the radio access network").
	NewSiteFraction float64
}

// DefaultConfig returns the dimensioning used by the experiments.
func DefaultConfig() Config {
	return Config{
		PopPerTower:     40_000,
		VisitorPopUnit:  200_000,
		SectorsPerTower: 3,
		NewSiteFraction: 0.01,
	}
}

// Topology is the full radio estate plus lookup indices.
type Topology struct {
	Towers []Tower
	Cells  []Cell

	model            *census.Model
	towersByDistrict [][]TowerID // indexed by DistrictID
	epochs           [][]epoch   // indexed by DistrictID, ascending from
	cells4GByTower   [][]CellID
	cells4G          []CellID
	grid             *geo.Grid // spatial index over tower locations
}

// epoch is a district's set of on-air sites from one activation day
// until the next.
type epoch struct {
	from timegrid.SimDay
	on   []TowerID // in towersByDistrict order
}

// Build deploys the radio network over the census model. The result is
// deterministic in (model, cfg, seed).
func Build(model *census.Model, cfg Config, seed uint64) *Topology {
	if cfg.PopPerTower <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.SectorsPerTower <= 0 {
		cfg.SectorsPerTower = 3
	}
	src := rng.New(rng.Hash64(seed ^ 0x7A10))

	// A district's site count follows from its demand alone, so the
	// estate is counted before any site is drawn and every slice is cut
	// to size once. District di owns TowerIDs [first[di], first[di+1]),
	// and its site list is a capacity-clipped view of one array.
	nd := len(model.Districts)
	first := make([]int, nd+1)
	for di := range model.Districts {
		first[di+1] = first[di] + sitesOf(&model.Districts[di], cfg)
	}
	nt := first[nd]
	t := &Topology{
		Towers:           make([]Tower, 0, nt),
		model:            model,
		towersByDistrict: make([][]TowerID, nd),
	}
	ids := make([]TowerID, nt)
	for di := range model.Districts {
		d := &model.Districts[di]
		dsrc := src.Split(uint64(di))
		for i := first[di]; i < first[di+1]; i++ {
			angle := dsrc.Range(0, 2*math.Pi)
			frac := math.Sqrt(dsrc.Float64()) // area-uniform placement
			loc := d.Area.PointOnRing(angle, frac)
			tower := Tower{
				ID:       TowerID(i),
				District: d.ID,
				County:   d.County,
				Loc:      loc,
				Sectors:  cfg.SectorsPerTower,
			}
			// RAT mix: everything has 4G; most sites retain 3G; a
			// minority keep 2G (legacy coverage layer).
			tower.HasRAT[RAT4G] = true
			tower.HasRAT[RAT3G] = dsrc.Bool(0.85)
			tower.HasRAT[RAT2G] = dsrc.Bool(0.45)
			if dsrc.Bool(cfg.NewSiteFraction) {
				// New deployment mid-window.
				tower.ActivationDay = timegrid.SimDay(dsrc.IntRange(1, timegrid.SimDays-1))
			}
			ids[i] = tower.ID
			t.Towers = append(t.Towers, tower)
		}
		t.towersByDistrict[di] = ids[first[di]:first[di+1]:first[di+1]]
	}

	// Activation epochs: one per distinct activation day of a district's
	// sites, listing the sites on air from that day on. The last epoch
	// has every site on air and shares the district's list. Each
	// district's activation days are sorted in its own stretch of days,
	// which sizes the epochs and the other epochs' site lists; both are
	// views of one array each.
	days := make([]timegrid.SimDay, nt)
	distinct := make([]int, nd)
	nEpochs, nOn := 0, 0
	for di, all := range t.towersByDistrict {
		ds := days[first[di]:first[di]]
		for _, id := range all {
			ds = append(ds, t.Towers[id].ActivationDay)
		}
		slices.Sort(ds)
		for k := 1; k < len(ds); k++ {
			if ds[k] != ds[k-1] {
				nOn += k // the sites on air from day ds[k-1] until ds[k]
			}
		}
		distinct[di] = len(slices.Compact(ds))
		nEpochs += distinct[di]
	}
	eps := make([]epoch, nEpochs)
	on := make([]TowerID, 0, nOn)
	t.epochs = make([][]epoch, nd)
	for di, all := range t.towersByDistrict {
		n := distinct[di]
		de := eps[:n:n]
		eps = eps[n:]
		for k, from := range days[first[di] : first[di]+n] {
			list := all
			if k < n-1 {
				start := len(on)
				for _, id := range all {
					if t.Towers[id].ActiveOn(from) {
						on = append(on, id)
					}
				}
				list = on[start:len(on):len(on)]
			}
			de[k] = epoch{from: from, on: list}
		}
		t.epochs[di] = de
	}

	// Spatial index for serving-cell and nearest-site queries.
	locs := make([]geo.Point, len(t.Towers))
	for i := range t.Towers {
		locs[i] = t.Towers[i].Loc
	}
	t.grid = geo.NewGrid(locs, 0)

	// Carve cells: one cell per (sector, RAT) the site supports. The 4G
	// cells come in tower order, so each site's list is a
	// capacity-clipped view of cells4G.
	nCells, n4G := 0, 0
	for ti := range t.Towers {
		tw := &t.Towers[ti]
		for _, has := range tw.HasRAT {
			if has {
				nCells += tw.Sectors
			}
		}
		if tw.HasRAT[RAT4G] {
			n4G += tw.Sectors
		}
	}
	t.Cells = make([]Cell, 0, nCells)
	t.cells4G = make([]CellID, 0, n4G)
	t.cells4GByTower = make([][]CellID, len(t.Towers))
	for ti := range t.Towers {
		tw := &t.Towers[ti]
		start := len(t.cells4G)
		for s := 0; s < tw.Sectors; s++ {
			for r := RAT(0); int(r) < NumRATs; r++ {
				if !tw.HasRAT[r] {
					continue
				}
				c := Cell{ID: CellID(len(t.Cells)), Tower: tw.ID, RAT: r, Sector: s}
				t.Cells = append(t.Cells, c)
				if r == RAT4G {
					t.cells4G = append(t.cells4G, c.ID)
				}
			}
		}
		end := len(t.cells4G)
		t.cells4GByTower[ti] = t.cells4G[start:end:end]
	}
	return t
}

// sitesOf returns the number of sites deployed in a district: its
// effective population over PopPerTower, at least one.
func sitesOf(d *census.District, cfg Config) int {
	effective := float64(d.Population) + d.DayVisitorWeight*float64(cfg.VisitorPopUnit)
	return max(int(math.Round(effective/float64(cfg.PopPerTower))), 1)
}

// Model returns the census model the topology is deployed over.
func (t *Topology) Model() *census.Model { return t.model }

// Tower returns the tower with the given ID.
func (t *Topology) Tower(id TowerID) *Tower { return &t.Towers[id] }

// Cells4GOfTower returns the 4G cells of a site; §2.4 restricts the KPI
// analysis to 4G, the RAT carrying ~75% of connected time.
func (t *Topology) Cells4GOfTower(id TowerID) []CellID { return t.cells4GByTower[id] }

// Cells4G returns every 4G cell in the estate.
func (t *Topology) Cells4G() []CellID { return t.cells4G }

// DistrictOfCell returns the district a cell serves.
func (t *Topology) DistrictOfCell(id CellID) census.DistrictID {
	return t.Towers[t.Cells[id].Tower].District
}

// PickTower draws a site of the district, active on day, uniformly; it
// falls back to any site of the district when none is active yet. The
// active set is the district's last activation epoch starting on or
// before day, so a pick is one Intn over a prebuilt list and allocates
// nothing.
func (t *Topology) PickTower(d census.DistrictID, day timegrid.SimDay, src *rng.Source) TowerID {
	eps := t.epochs[d]
	for k := len(eps) - 1; k >= 0; k-- {
		if eps[k].from <= day {
			on := eps[k].on
			return on[src.Intn(len(on))]
		}
	}
	all := t.towersByDistrict[d]
	return all[src.Intn(len(all))]
}

// NearestTower returns the site closest to a point, via the spatial
// grid index.
func (t *Topology) NearestTower(p geo.Point) TowerID {
	i, _ := t.grid.Nearest(p)
	if i < 0 {
		return 0
	}
	return TowerID(i)
}
