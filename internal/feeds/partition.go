package feeds

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	"repro/internal/grow"
	"repro/internal/mobsim"
	"repro/internal/traffic"
)

// ShardDirName returns the conventional name of partition shard s
// inside a partition output directory.
func ShardDirName(s int) string { return fmt.Sprintf("shard-%02d", s) }

// PartitionDir splits the feed directory in into parts shard
// directories out/shard-00 … out/shard-NN for multi-process replay.
// Users are partitioned into contiguous ID ranges (traces within a day
// are ordered by ascending user ID, so concatenating shard outputs in
// shard order restores the exact single-process fold order — the
// property the partial-merge parity harness pins). Each shard receives:
//
//   - traces.col — the day traces of its user range. Every day block is
//     written even when empty, so each shard's replay enumerates the
//     same days and stays aligned with its KPI/event feeds.
//   - kpi.col — the cell-day records of the cells congruent to the
//     shard index mod parts (cells carry no user, and sketch merging is
//     order-independent, so any disjoint covering assignment is exact).
//   - events.csv — the control-plane events of its user range, with
//     out-of-range users (the M2M/roamer background) clamped to the
//     edge shards.
//   - feed_meta.csv — the source provenance plus the partition columns
//     (part, parts, user_lo, user_hi).
//
// Every shard is written through DirWriter in FormatCol, with its user
// range stamped into the traces.col header. The returned metas
// describe the shards in shard order.
//
// The input is read twice, through one source. Pass 1 (userRange)
// decodes the trace feed alone for the user ID range; the trace reader
// is then rewound, and pass 2 routes every record. opt applies to the
// input readers of both passes, except that pass 1 never calls
// opt.OnSkip: a lenient run skips the same damaged rows in both passes,
// so each skip is reported once, by pass 2. In strict mode a damaged
// trace feed fails in pass 1, before anything is written; a damaged KPI
// or event feed fails in pass 2, with the same error, after the shard
// directories have been created (they then hold no meta sidecar, which
// is written last).
func PartitionDir(in, out string, parts int, opt Options) ([]Meta, error) {
	if parts < 1 {
		return nil, fmt.Errorf("feeds: cannot partition into %d parts", parts)
	}

	// Pass 1 runs on pass 2's source, so pass 2 starts on a warm trace
	// reader and a warm store from the source's pool.
	src, err := OpenDirOpts(in, opt)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	lo, hi, err := userRange(src, in, opt)
	if err != nil {
		return nil, err
	}

	span := uint64(hi-lo) + 1
	ceil := func(a uint64) uint64 { return (a + uint64(parts) - 1) / uint64(parts) }
	shardOf := func(u uint32) int {
		switch {
		case u <= lo:
			return 0
		case u >= hi:
			return parts - 1
		default:
			return int(uint64(u-lo) * uint64(parts) / span)
		}
	}

	srcMeta, _, err := ReadMeta(in)
	if err != nil {
		return nil, err
	}

	// Pass 2: route every record to its shard.
	metas := make([]Meta, parts)
	ws := make([]*DirWriter, parts)
	events := make([]*EventWriter, parts)
	defer func() { // error paths; the success path checks Close below
		for _, w := range ws {
			if w != nil {
				w.Close()
			}
		}
	}()
	for s := range ws {
		m := srcMeta
		m.Part, m.Parts = s, parts
		m.UserLo = lo + uint32(ceil(uint64(s)*span))
		m.UserHi = lo + uint32(ceil(uint64(s+1)*span)) - 1
		if ws[s], err = createDir(filepath.Join(out, ShardDirName(s)), FormatCol, src.kpi != nil, m.UserLo, m.UserHi); err != nil {
			return nil, err
		}
		metas[s] = ws[s].stamp(m)
		if src.events != nil {
			if events[s], err = ws[s].Events(); err != nil {
				return nil, err
			}
		}
	}

	// Each shard's buckets are sized for its share of the day's records
	// (grow.Slack), so they are not grown by doubling from nil.
	traceBuckets := make([][]mobsim.DayTrace, parts)
	cellBuckets := make([][]traffic.CellDay, parts)
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for s := range traceBuckets {
			traceBuckets[s] = grow.Slack(traceBuckets[s], len(b.Traces)/parts)
			cellBuckets[s] = grow.Slack(cellBuckets[s], len(b.Cells)/parts)
		}
		for i := range b.Traces {
			s := shardOf(uint32(b.Traces[i].User))
			traceBuckets[s] = append(traceBuckets[s], b.Traces[i])
		}
		for i := range b.Cells {
			s := int(uint64(b.Cells[i].Cell) % uint64(parts))
			cellBuckets[s] = append(cellBuckets[s], b.Cells[i])
		}
		for i := range b.Events {
			events[shardOf(uint32(b.Events[i].User))].Consume(b.Events[i])
		}
		for s, w := range ws {
			// Trace day blocks are written unconditionally (even empty) to
			// keep every shard's day cursor aligned.
			if err := w.WriteTraces(b.Day, traceBuckets[s]); err != nil {
				return nil, err
			}
			if len(cellBuckets[s]) > 0 {
				if err := w.WriteKPI(b.Day, cellBuckets[s]); err != nil {
					return nil, err
				}
			}
		}
		b.Release()
	}

	for s, w := range ws {
		if err := w.Close(); err != nil {
			return nil, err
		}
		if err := w.WriteMeta(metas[s]); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

// userRange is PartitionDir's pass 1: it scans the trace feed of src,
// opened on dir, for the lowest and highest user ID. IDs are dense
// (popsim assigns them sequentially), so equal ID spans give near-equal
// shard populations. The trace reader reads the feed from the start
// with opt.OnSkip dropped (pass 2 reports the skips), decoding every
// day into one store drawn from src's pool, and is rewound under opt
// for pass 2; the store goes back to the pool on return.
func userRange(src *FeedSource, dir string, opt Options) (lo, hi uint32, err error) {
	pass1 := opt
	pass1.OnSkip = nil
	if err := src.rewindTraces(pass1); err != nil {
		return 0, 0, err
	}
	lo, hi = math.MaxUint32, 0
	seen := false
	st := src.pool.Draw()
	b := st.Batch()
	defer b.Release()
	for {
		if _, err := src.traces.ReadDayInto(st.Buf); err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, err
		}
		for _, t := range st.Buf.Traces() {
			lo, hi = min(lo, uint32(t.User)), max(hi, uint32(t.User))
			seen = true
		}
	}
	if !seen {
		return 0, 0, fmt.Errorf("feeds: cannot partition %s: trace feed has no users", dir)
	}
	return lo, hi, src.rewindTraces(opt)
}
