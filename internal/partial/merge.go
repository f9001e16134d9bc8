package partial

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// EventTotals is one day of merged control-plane counts.
type EventTotals struct {
	Day      timegrid.SimDay
	Events   int64
	Failures int64
}

// Result is the merged output of a complete set of partials: the same
// rows a single process replaying the whole feed would produce.
type Result struct {
	Users    int
	Seed     uint64
	Scenario string

	// Mobility has one row per replayed day; KPI only the days that saw
	// cells (matching stream.KPIMedians); Events one row per day.
	Mobility []stream.MobilityDay
	KPI      []stream.KPIDay
	Events   []EventTotals
}

// Merge folds partials into the single-process result. It accepts
// either one unpartitioned partial or the complete shard set of one
// partitioned run (every Part 0..Parts-1 exactly once, in any order,
// disjoint user ranges, identical day sequences and provenance). Each
// day's users must be strictly ascending and, in a partitioned part,
// inside its range. Merge sorts a copy of parts, never the caller's
// slice.
//
// The parts' day blocks are read in lockstep, one day per part at a
// time, from a Recorder's memory or from the files ReadFile verified,
// which are reopened and verified again: a damaged block fails with the
// usual *BlockError, and a file that is no longer the one ReadFile saw
// (another size or whole-file CRC-32C) with ErrChanged. On any failure
// Merge returns no Result.
//
// Mobility averages are bit-identical to a single-process replay: the
// per-user metrics are re-folded in ascending user-range order, which
// is the single process's trace order. KPI medians are bit-identical
// because sketch bin counts add exactly. Event totals are integer sums.
func Merge(parts []*Partial) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("partial: nothing to merge")
	}
	for _, p := range parts {
		if p.Version != Version {
			return nil, fmt.Errorf("partial: version %d not supported (this build reads %d)", p.Version, Version)
		}
	}
	ref := parts[0]
	for _, p := range parts[1:] {
		if p.Users != ref.Users || p.Seed != ref.Seed || p.Scenario != ref.Scenario {
			return nil, fmt.Errorf("partial: mixed provenance: (users=%d seed=%d scenario=%q) vs (users=%d seed=%d scenario=%q)",
				ref.Users, ref.Seed, ref.Scenario, p.Users, p.Seed, p.Scenario)
		}
	}

	if len(parts) > 1 || ref.Partitioned() {
		for _, p := range parts {
			if p.Parts != len(parts) {
				return nil, fmt.Errorf("partial: part %d/%d merged with %d partials; need the complete shard set", p.Part, p.Parts, len(parts))
			}
		}
		parts = slices.Clone(parts)
		slices.SortFunc(parts, func(a, b *Partial) int { return cmp.Compare(a.Part, b.Part) })
		for s, p := range parts {
			if p.Part != s {
				return nil, fmt.Errorf("partial: shard set has no part %d (found part %d)", s, p.Part)
			}
			if s > 0 && p.UserLo <= parts[s-1].UserHi {
				return nil, fmt.Errorf("partial: parts %d and %d have overlapping user ranges", s-1, s)
			}
		}
	}

	days := ref.days
	for _, p := range parts {
		if p.days != days {
			return nil, fmt.Errorf("partial: part %d replayed %d days, part %d replayed %d", ref.Part, days, p.Part, p.days)
		}
	}

	rs := make([]*dayReader, len(parts))
	defer func() {
		for _, r := range rs {
			if r != nil {
				r.close()
			}
		}
	}()
	for s, p := range parts {
		r, err := p.openDays()
		if err != nil {
			return nil, err
		}
		rs[s] = r
	}

	res := &Result{
		Users: ref.Users, Seed: ref.Seed, Scenario: ref.Scenario,
		Mobility: make([]stream.MobilityDay, 0, days),
		KPI:      make([]stream.KPIDay, 0, days),
		Events:   make([]EventTotals, 0, days),
	}
	merged := make([]*stream.QSketch, traffic.NumMetrics)
	for m := range merged {
		merged[m] = stream.NewQSketch()
	}
	for j := 0; j < days; j++ {
		for s, r := range rs {
			if _, err := r.next(true); err != nil {
				return nil, err
			}
			if err := checkDay(parts[s], &r.day, rs[0].day.Day, j); err != nil {
				return nil, err
			}
		}
		day := rs[0].day.Day

		// Mobility: sequential fold in shard (== user-range == single
		// process trace) order.
		var e, g float64
		n := 0
		for _, r := range rs {
			d := &r.day
			for i := range d.Entropy {
				e += d.Entropy[i]
				g += d.Gyration[i]
				n++
			}
		}
		row := stream.MobilityDay{Day: day, Users: n}
		if n > 0 {
			row.AvgEntropy = e / float64(n)
			row.AvgGyration = g / float64(n)
		}
		res.Mobility = append(res.Mobility, row)

		// KPI: exact sketch merge.
		cells := 0
		for _, q := range merged {
			q.Reset()
		}
		for s, r := range rs {
			d := &r.day
			if d.Cells == 0 {
				continue
			}
			cells += d.Cells
			for m, q := range merged {
				if err := q.MergeState(d.Sketches[m]); err != nil {
					return nil, fmt.Errorf("partial: part %d day %d metric %d: %w", parts[s].Part, day, m, err)
				}
			}
		}
		if cells > 0 {
			k := stream.KPIDay{Day: day, Cells: cells}
			for m := range merged {
				k.Medians[m] = merged[m].Median()
			}
			res.KPI = append(res.KPI, k)
		}

		// Control plane: integer sums.
		ev := EventTotals{Day: day}
		for _, r := range rs {
			ev.Events += r.day.Events
			ev.Failures += r.day.Failures
		}
		res.Events = append(res.Events, ev)
	}
	for _, r := range rs {
		if err := r.finish(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkDay checks what the bytes of part p's day block j cannot: that
// its day is refDay (the first part's day j), that its columns line up,
// that its users are strictly ascending and inside a partitioned part's
// range, and that a day with cells carries every metric's sketch.
func checkDay(p *Partial, d *Day, refDay timegrid.SimDay, j int) error {
	if d.Day != refDay {
		return fmt.Errorf("partial: day sequences diverge at index %d: %d vs %d", j, refDay, d.Day)
	}
	if len(d.Users) != len(d.Entropy) || len(d.Users) != len(d.Gyration) {
		return fmt.Errorf("partial: part %d day %d: ragged metric columns", p.Part, d.Day)
	}
	for i, u := range d.Users {
		if i > 0 && u <= d.Users[i-1] {
			return fmt.Errorf("partial: part %d day %d: user %d follows user %d; users must be strictly ascending", p.Part, d.Day, u, d.Users[i-1])
		}
		if p.Partitioned() && (u < p.UserLo || u > p.UserHi) {
			return fmt.Errorf("partial: part %d day %d: user %d outside the part's range [%d, %d]", p.Part, d.Day, u, p.UserLo, p.UserHi)
		}
	}
	if d.Cells > 0 && len(d.Sketches) != traffic.NumMetrics {
		return fmt.Errorf("partial: part %d day %d: %d sketches, want %d", p.Part, d.Day, len(d.Sketches), traffic.NumMetrics)
	}
	return nil
}
