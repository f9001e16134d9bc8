package core

import (
	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

// nightBlock is the size of one tally-arena block in entries (24 bytes
// each, so 96 KiB). Blocks are allocated whole and never regrown, so a
// cold detector allocates about what it holds.
const nightBlock = 4 << 10

// HomeDetector implements the §2.3 home-detection algorithm: a user's
// home is the cell tower they connect to the longest during night-time
// hours (midnight through 08:00), observed on at least MinNights
// distinct nights during February 2020.
//
// Its state is one tally per (user, night tower) pair, kept in a block
// arena: each user's tallies form a chain threaded through the arena by
// index, and a single map holds the head of every user's chain. A new
// tally is appended only for a tower the user has not slept under
// before, so folding a night into known towers touches no allocator.
type HomeDetector struct {
	topo *radio.Topology
	// MinNights is the minimum number of distinct nights the winning
	// tower must be observed on (14 in the paper). Only Detect reads it,
	// so one fed detector can be detected at several thresholds.
	MinNights int
	// NightBins are the 4-hour bins counted as night (bins 0 and 1 cover
	// 00:00–08:00).
	NightBins []timegrid.Bin

	// heads maps each user to the arena index of its newest tally.
	heads map[popsim.UserID]int32
	// blocks is the tally arena; entry i lives at
	// blocks[i/nightBlock][i%nightBlock]. Blocks never move.
	blocks []*[nightBlock]nightTower
	// used is the number of arena entries handed out.
	used int32

	// night is one night's per-tower dwell, reused across ConsumeTrace
	// calls so the hot path allocates nothing per user-day. A user sees
	// at most a handful of towers overnight, so the linear scan wins
	// over a map.
	night []towerDwell
}

// nightTower is one user's February tally for one tower: the nights it
// was seen on, the night dwell summed in day order, and the arena index
// of the user's next tally (-1 ends the chain).
type nightTower struct {
	tower  radio.TowerID
	nights int32
	sec    float64
	next   int32
}

// towerDwell is one (tower, dwell) pair of a single night.
type towerDwell struct {
	tower radio.TowerID
	sec   float64
}

// NewHomeDetector returns a detector with the paper's parameters.
func NewHomeDetector(topo *radio.Topology) *HomeDetector {
	return &HomeDetector{
		topo:      topo,
		MinNights: 14,
		NightBins: []timegrid.Bin{0, 1},
		heads:     make(map[popsim.UserID]int32),
	}
}

// ConsumeDay feeds one simulated day of traces. Only February days
// contribute (the paper's detection window); other days are ignored, so
// callers can stream the whole simulation through unconditionally.
func (h *HomeDetector) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	if !day.InFebruary() {
		return
	}
	for i := range traces {
		h.ConsumeTrace(day, &traces[i])
	}
}

// ConsumeTrace feeds a single user's trace for one night. All detector
// state is per-user, so a pipeline that shards users across several
// detectors and unions their Detect() results reproduces a single
// detector exactly, as long as each user's nights arrive in day order.
func (h *HomeDetector) ConsumeTrace(day timegrid.SimDay, t *mobsim.DayTrace) {
	if !day.InFebruary() {
		return
	}
	// Night dwell per tower for this night, accumulated in visit order
	// in the reused scratch; each tally then adds the night's total, so
	// every per-user sum keeps its day-order addition sequence.
	night := h.night[:0]
	for _, v := range t.Visits {
		if !h.isNight(v.Bin()) {
			continue
		}
		tw, sec := v.Tower(), float64(v.Seconds())
		found := false
		for i := range night {
			if night[i].tower == tw {
				night[i].sec += sec
				found = true
				break
			}
		}
		if !found {
			night = append(night, towerDwell{tower: tw, sec: sec})
		}
	}
	h.night = night
	if len(night) == 0 {
		return
	}
	head, ok := h.heads[t.User]
	if !ok {
		head = -1
	}
	first := head
	for _, td := range night {
		e := h.find(head, td.tower)
		if e == nil {
			e, head = h.push(td.tower, head)
		}
		e.sec += td.sec
		e.nights++
	}
	if head != first {
		h.heads[t.User] = head
	}
}

// at returns arena entry i.
func (h *HomeDetector) at(i int32) *nightTower {
	return &h.blocks[i/nightBlock][i%nightBlock]
}

// find walks the chain starting at head for tower's tally.
func (h *HomeDetector) find(head int32, tower radio.TowerID) *nightTower {
	for i := head; i >= 0; {
		e := h.at(i)
		if e.tower == tower {
			return e
		}
		i = e.next
	}
	return nil
}

// push appends an empty tally for tower in front of the chain at next,
// opening a fresh block when the last one is full, and returns it with
// its index, the chain's new head.
func (h *HomeDetector) push(tower radio.TowerID, next int32) (*nightTower, int32) {
	i := h.used
	if int(i/nightBlock) == len(h.blocks) {
		h.blocks = append(h.blocks, new([nightBlock]nightTower))
	}
	h.used++
	e := h.at(i)
	*e = nightTower{tower: tower, next: next}
	return e, i
}

func (h *HomeDetector) isNight(b timegrid.Bin) bool {
	for _, nb := range h.NightBins {
		if b == nb {
			return true
		}
	}
	return false
}

// Home is a detected home location.
type Home struct {
	User     popsim.UserID
	Tower    radio.TowerID
	District census.DistrictID
	County   census.CountyID
}

// Detect finalises the detection: for every user with enough night
// observations it returns the inferred home. Users whose best tower was
// seen on fewer than MinNights nights are dropped, mirroring the paper
// (homes were determined for ~16M of ~22M users).
func (h *HomeDetector) Detect() map[popsim.UserID]Home {
	out := make(map[popsim.UserID]Home, len(h.heads))
	for user, head := range h.heads {
		// Most seconds wins, ties to the lower tower: the result does
		// not depend on chain order.
		var best *nightTower
		for i := head; i >= 0; {
			e := h.at(i)
			if best == nil || e.sec > best.sec || (e.sec == best.sec && e.tower < best.tower) {
				best = e
			}
			i = e.next
		}
		if int(best.nights) < h.MinNights {
			continue
		}
		tw := h.topo.Tower(best.tower)
		out[user] = Home{User: user, Tower: best.tower, District: tw.District, County: tw.County}
	}
	return out
}

// CensusValidation is the Fig. 2 experiment: it compares the number of
// inferred residents per area against the (scaled) census population and
// fits a line, reporting r².
type CensusValidation struct {
	Fit stats.LinearFit
	// Areas is the number of comparison points (districts standing in
	// for Local Authority Districts).
	Areas int
	// Inferred and Census hold the paired observations, for plotting.
	Inferred []float64
	Census   []float64
	Labels   []string
}

// ValidateAgainstCensus aggregates detected homes per district and
// regresses the counts against census populations scaled to the agent
// population, reproducing the Fig. 2 validation (paper: r² = 0.955).
func ValidateAgainstCensus(homes map[popsim.UserID]Home, model *census.Model, scale float64) (CensusValidation, error) {
	counts := make([]float64, len(model.Districts))
	for _, h := range homes {
		counts[h.District]++
	}
	v := CensusValidation{
		Inferred: make([]float64, 0, len(model.Districts)),
		Census:   make([]float64, 0, len(model.Districts)),
		Labels:   make([]string, 0, len(model.Districts)),
	}
	for i := range model.Districts {
		d := &model.Districts[i]
		v.Inferred = append(v.Inferred, counts[i])
		v.Census = append(v.Census, float64(d.Population)*scale)
		v.Labels = append(v.Labels, d.Code)
	}
	fit, err := stats.OLS(v.Census, v.Inferred)
	if err != nil {
		return v, err
	}
	v.Fit = fit
	v.Areas = len(v.Inferred)
	return v, nil
}
