// Package partial serializes per-process replay results so that a feed
// directory partitioned by user range (feeds.PartitionDir) can be
// replayed by independent processes whose outputs merge into exactly the
// single-process result.
//
// Every aggregate a Partial carries is chosen to survive merging:
//
//   - Mobility is stored as the raw per-user per-day §2.3 metrics
//     (entropy, radius of gyration) in trace order. The merge re-folds
//     them in global user order — partition shards hold contiguous user
//     ranges and traces are user-ordered within a day, so the fold
//     visits users in exactly the single-process order and the merged
//     national averages are bit-identical, not merely close.
//   - KPI medians are stored as stream.QSketchState snapshots, whose bin
//     counts add: merging per-shard sketches is exact and commutative,
//     so merged medians equal the single-process sketch medians bit for
//     bit.
//   - Control-plane totals are integer event and failure counts, which
//     simply add.
//
// A Recorder is attached to a stream.Engine replay (serial trace/KPI
// consumers plus an event sharder) and captures one Day row per
// replayed day; WriteFile/ReadFile move the Partial through the binary
// format below; Merge folds any complete set of shards — or a single
// unpartitioned run — into the final rows. cmd/feedmerge is the CLI
// over this package.
//
// # File format (Version 2)
//
// A file is the magic "MNOP" and a version byte, then a header block
// and one block per day. Every block is a payload length (uint32 LE),
// the payload, and a CRC-32 (IEEE, uint32 LE) over length and payload.
//
//   - Header payload: uvarints Users, Seed, Part, Parts, UserLo, UserHi,
//     the number of day blocks, and the scenario name's length followed
//     by its bytes.
//   - Day payload: the day (varint); the user column as a count and
//     zig-zag varint deltas from 0, as in colfmt; the entropy and
//     gyration columns, each a count and float64 bit patterns (uint64
//     LE); cells (varint); the sketch count, then per sketch under,
//     count and bin count (varints), each non-zero bin as an index gap
//     (uvarint) and its count (varint), and a closing gap that lands on
//     the bin count; events and failures (varints).
//
// Floats travel as raw IEEE-754 bits and sketch bins as exact counts, so
// the round trip is exact by construction. Reading is strict: the
// first bad header or block fails the read with a *BlockError carrying
// path:offset, every length is bounded before anything is allocated,
// and a version-1 (JSON) partial is rejected with ErrVersion.
package partial

import (
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Version is the Partial schema version; bump on incompatible change.
const Version = 2

// Day is one replayed day of a single process's aggregates.
type Day struct {
	Day timegrid.SimDay

	// Per-user mobility metrics in trace order (all three slices share
	// indices). Users carries the native user IDs so Merge can verify
	// shard ranges.
	Users    []uint32
	Entropy  []float64
	Gyration []float64

	// KPI cells seen this day and the per-metric quantile sketches
	// (len traffic.NumMetrics when Cells > 0, absent otherwise).
	Cells    int
	Sketches []stream.QSketchState

	// Control-plane totals.
	Events   int64
	Failures int64
}

// Partial is the serializable result of one process replaying one feed
// directory (a partition shard, or a whole unpartitioned feed).
type Partial struct {
	Version  int
	Users    int
	Seed     uint64
	Scenario string

	// Partition coordinates, copied from the feed's meta sidecar; an
	// unpartitioned replay has Parts == 0.
	Part   int
	Parts  int
	UserLo uint32
	UserHi uint32

	Days []Day
}

// Partitioned reports whether the partial covers a partition shard.
func (p *Partial) Partitioned() bool { return p.Parts > 0 }

// Recorder captures a Partial from a stream.Engine replay. Attach all
// three views:
//
//	rec := partial.NewRecorder(topo, topN, meta)
//	eng.AddTraceConsumer(rec.Traces())
//	eng.AddKPIConsumer(rec.KPI())
//	eng.AddEventSharder(rec.Events())
//
// The trace and KPI views run in the engine's serial merge stage (day
// order); the event view counts concurrently with atomic adds, which is
// exact for integers.
type Recorder struct {
	topo   *radio.Topology
	topN   int
	merger core.VisitMerger

	p   Partial
	idx map[timegrid.SimDay]int

	// sketches is the KPI view's scratch, one sketch per metric, reset
	// for every day and snapshotted into the day row.
	sketches [traffic.NumMetrics]*stream.QSketch

	// Event scratch: accumulated by concurrent ShardDay calls, folded
	// into the day row by EndDay.
	evDay    int
	evCount  atomic.Int64
	evFailed atomic.Int64
}

// NewRecorder builds a recorder. topo and topN must match the stack the
// feed was generated from; meta supplies the provenance and partition
// coordinates stamped into the Partial.
func NewRecorder(topo *radio.Topology, topN int, meta feeds.Meta) *Recorder {
	r := &Recorder{
		topo: topo,
		topN: topN,
		p: Partial{
			Version: Version,
			Users:   meta.Users, Seed: meta.Seed, Scenario: meta.Scenario,
			Part: meta.Part, Parts: meta.Parts,
			UserLo: meta.UserLo, UserHi: meta.UserHi,
		},
		idx: make(map[timegrid.SimDay]int),
	}
	for m := range r.sketches {
		r.sketches[m] = stream.NewQSketch()
	}
	return r
}

// dayRow returns the row for day, creating it in arrival order. The
// pointer is only valid until the next dayRow call.
func (r *Recorder) dayRow(day timegrid.SimDay) *Day {
	if i, ok := r.idx[day]; ok {
		return &r.p.Days[i]
	}
	r.idx[day] = len(r.p.Days)
	r.p.Days = append(r.p.Days, Day{Day: day})
	return &r.p.Days[len(r.p.Days)-1]
}

// Partial returns the recorded result. Call after the engine run
// completes; the returned value aliases the recorder's state.
func (r *Recorder) Partial() *Partial { return &r.p }

// Traces returns the serial trace consumer view.
func (r *Recorder) Traces() stream.TraceConsumer { return traceView{r} }

type traceView struct{ r *Recorder }

func (v traceView) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	r := v.r
	d := r.dayRow(day)
	d.Users = slices.Grow(d.Users, len(traces))
	d.Entropy = slices.Grow(d.Entropy, len(traces))
	d.Gyration = slices.Grow(d.Gyration, len(traces))
	for i := range traces {
		m := r.merger.DayMetrics(&traces[i], r.topo, r.topN)
		d.Users = append(d.Users, uint32(traces[i].User))
		d.Entropy = append(d.Entropy, m.Entropy)
		d.Gyration = append(d.Gyration, m.Gyration)
	}
}

// KPI returns the serial KPI consumer view.
func (r *Recorder) KPI() stream.KPIConsumer { return kpiView{r} }

type kpiView struct{ r *Recorder }

func (v kpiView) ConsumeDay(day timegrid.SimDay, cells []traffic.CellDay) {
	r := v.r
	d := r.dayRow(day)
	if len(cells) == 0 {
		return
	}
	d.Cells += len(cells)
	qs := &r.sketches
	for m, q := range qs {
		q.Reset()
		if d.Sketches != nil { // a second batch for the day: fold the first in
			if err := q.MergeState(d.Sketches[m]); err != nil {
				// Only possible for a window outside the sketch's bins,
				// which State never returns; keep the signature clean.
				panic(err)
			}
		}
	}
	for i := range cells {
		for m, q := range qs {
			q.Add(cells[i].Values[m])
		}
	}
	if d.Sketches == nil {
		d.Sketches = make([]stream.QSketchState, traffic.NumMetrics)
	}
	for m, q := range qs {
		d.Sketches[m] = q.State()
	}
}

// Events returns the event sharder view.
func (r *Recorder) Events() stream.EventSharder { return eventView{r} }

type eventView struct{ r *Recorder }

func (v eventView) BeginDay(day timegrid.SimDay, _ []signaling.Event) {
	r := v.r
	r.dayRow(day)
	r.evDay = r.idx[day]
	r.evCount.Store(0)
	r.evFailed.Store(0)
}

func (v eventView) ShardDay(_ int, _ timegrid.SimDay, events []signaling.Event, idx []int) {
	var failed int64
	for _, i := range idx {
		if !events[i].OK {
			failed++
		}
	}
	v.r.evCount.Add(int64(len(idx)))
	v.r.evFailed.Add(failed)
}

func (v eventView) EndDay(timegrid.SimDay) {
	r := v.r
	d := &r.p.Days[r.evDay]
	d.Events += r.evCount.Load()
	d.Failures += r.evFailed.Load()
}
