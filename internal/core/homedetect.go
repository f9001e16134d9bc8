package core

import (
	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

// nightBlock is the size of one tally-arena block in entries (20 bytes
// each, so 80 KiB). Blocks are allocated whole and never regrown, so a
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
// Each block stores its tallies as parallel arrays: the 8-byte
// {tower, next} links that a chain walk reads, then the float64 night
// seconds and int32 night counts, 20 bytes per pair in all.
type HomeDetector struct {
	topo *radio.Topology
	// MinNights is the minimum number of distinct nights the winning
	// tower must be observed on (14 in the paper). Only Detect reads it,
	// so one fed detector can be detected at several thresholds.
	MinNights int
	// NightBins are the 4-hour bins counted as night (bins 0 and 1 cover
	// 00:00–08:00).
	NightBins []timegrid.Bin

	// heads maps each user to the arena index of its newest tally. It is
	// built on the first February day, sized from that day's users.
	heads map[popsim.UserID]int32
	// blocks is the tally arena; entry i lives at index i%nightBlock of
	// blocks[i/nightBlock]. Blocks never move.
	blocks []*tallyBlock
	// used is the number of arena entries handed out.
	used int32

	// night is one night's per-tower dwell, reused across ConsumeTrace
	// calls so the hot path allocates nothing per user-day. A user sees
	// at most a handful of towers overnight, so the linear scan wins
	// over a map.
	night []towerDwell
}

// tallyBlock is one arena block. Entry k is one user's February
// tally for one tower: link[k] holds the tower and the arena index of
// the user's next tally (-1 ends the chain), sec[k] the night dwell
// summed in day order and nights[k] the nights the tower was seen on.
type tallyBlock struct {
	link   [nightBlock]nightLink
	sec    [nightBlock]float64
	nights [nightBlock]int32
}

// nightLink is a tally's chain entry.
type nightLink struct {
	tower radio.TowerID
	next  int32
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
	}
}

// ConsumeDay feeds one simulated day of traces. Only February days
// contribute (the paper's detection window); other days are ignored, so
// callers can stream the whole simulation through unconditionally.
func (h *HomeDetector) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	if !day.InFebruary() {
		return
	}
	h.Reserve(len(traces))
	for i := range traces {
		h.ConsumeTrace(day, &traces[i])
	}
}

// Reserve sizes the head map for the given number of users if the
// detector has no map yet, and does nothing otherwise. ConsumeDay sizes
// it from the first February day, which carries nearly every user the
// month will, so the map does not grow while it fills.
func (h *HomeDetector) Reserve(users int) {
	if h.heads == nil {
		h.heads = make(map[popsim.UserID]int32, users)
	}
}

// ConsumeTrace feeds a single user's trace for one night. All detector
// state is per-user, so a pipeline that shards users across several
// detectors and has each DetectInto one map reproduces a single
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
	h.Reserve(0) // for callers that feed single traces only
	head, ok := h.heads[t.User]
	if !ok {
		head = -1
	}
	first := head
	for _, td := range night {
		i := h.find(head, td.tower)
		if i < 0 {
			i = h.push(td.tower, head)
			head = i
		}
		b, k := h.blocks[i/nightBlock], i%nightBlock
		b.sec[k] += td.sec
		b.nights[k]++
	}
	if head != first {
		h.heads[t.User] = head
	}
}

// find walks the chain starting at head for tower's tally and returns
// its arena index, or -1.
func (h *HomeDetector) find(head int32, tower radio.TowerID) int32 {
	for i := head; i >= 0; {
		l := &h.blocks[i/nightBlock].link[i%nightBlock]
		if l.tower == tower {
			return i
		}
		i = l.next
	}
	return -1
}

// push appends an empty tally for tower in front of the chain at next,
// opening a fresh block when the last one is full, and returns its
// index, the chain's new head.
func (h *HomeDetector) push(tower radio.TowerID, next int32) int32 {
	i := h.used
	if int(i/nightBlock) == len(h.blocks) {
		h.blocks = append(h.blocks, new(tallyBlock))
	}
	h.used++
	h.blocks[i/nightBlock].link[i%nightBlock] = nightLink{tower: tower, next: next}
	return i
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
	out := make(map[popsim.UserID]Home, h.Users())
	h.DetectInto(out)
	return out
}

// Users returns the number of users with at least one night tally, an
// upper bound on the homes Detect finds.
func (h *HomeDetector) Users() int { return len(h.heads) }

// DetectInto adds Detect's homes to out, so detectors that hold
// disjoint users (the shards of one stream) can fill one shared map.
func (h *HomeDetector) DetectInto(out map[popsim.UserID]Home) {
	for user, head := range h.heads {
		// Most seconds wins, ties to the lower tower: the result does
		// not depend on chain order.
		best, bestTower, bestSec := int32(-1), radio.TowerID(0), 0.0
		for i := head; i >= 0; {
			b, k := h.blocks[i/nightBlock], i%nightBlock
			l, sec := b.link[k], b.sec[k]
			if best < 0 || sec > bestSec || (sec == bestSec && l.tower < bestTower) {
				best, bestTower, bestSec = i, l.tower, sec
			}
			i = l.next
		}
		if int(h.blocks[best/nightBlock].nights[best%nightBlock]) < h.MinNights {
			continue
		}
		tw := h.topo.Tower(bestTower)
		out[user] = Home{User: user, Tower: bestTower, District: tw.District, County: tw.County}
	}
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
