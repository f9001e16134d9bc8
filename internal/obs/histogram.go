package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of the log2 latency histogram.
// Bucket 0 holds observations <= 0 ns; bucket i (i >= 1) holds the
// range [2^(i-1), 2^i) ns. 2^46 ns is ~19.5 hours, so the top bucket
// saturates anything a single run could plausibly time.
const histBuckets = 48

// bucketOf maps an observation (ns) to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) // value 1 -> bucket 1: [1, 2)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketBounds returns the [lo, hi) ns range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// HistShard is one writer's slice of a Histogram: count, sum, max and
// the fixed log2 buckets, all atomic, padded so shards of one histogram
// never share a cache line. Writers hold their shard pointer
// (Histogram.Shard) and call Observe; readers merge every shard on
// demand (Histogram.Snapshot). All methods are nil-safe no-ops.
type HistShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
	_       [cacheLine - (3+histBuckets)*8%cacheLine]byte
}

// Observe records one duration in nanoseconds. Negative inputs clamp
// to zero (durations from a monotonic clock are non-negative; the
// clamp keeps arithmetic on merged sums safe regardless).
func (s *HistShard) Observe(ns int64) {
	if s == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.sum.Add(ns)
	for {
		m := s.max.Load()
		if ns <= m || s.max.CompareAndSwap(m, ns) {
			break
		}
	}
	s.buckets[bucketOf(ns)].Add(1)
}

// Histogram is a fixed-bucket log2 latency histogram split into
// per-worker shards. Concurrent writers each own a shard (by worker
// index) so the hot path is an uncontended atomic add; reads merge the
// shards, which is exact and order-invariant because bucket counts add
// (the same contract as stream.QSketch). A nil histogram hands out nil
// shards, so every path stays a no-op when disabled.
type Histogram struct {
	shards []HistShard
}

// NewHistogram builds a histogram with the given writer shard count
// (values < 1 are clamped to 1).
func NewHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	return &Histogram{shards: make([]HistShard, shards)}
}

// Shard returns writer w's shard (wrapping modulo the shard count), or
// nil on a nil histogram.
func (h *Histogram) Shard(w int) *HistShard {
	if h == nil {
		return nil
	}
	if w < 0 {
		w = -w
	}
	return &h.shards[w%len(h.shards)]
}

// Observe records one duration into shard 0 — the single-writer form.
func (h *Histogram) Observe(ns int64) { h.Shard(0).Observe(ns) }

// Bucket is one non-empty histogram bucket in a snapshot: Count
// observations below LtNs (and at or above the previous bucket's LtNs).
type Bucket struct {
	LtNs  int64 `json:"lt_ns"`
	Count int64 `json:"count"`
}

// HistSnapshot is the read-side view of a histogram: every shard
// merged, with derived mean and quantile estimates. Quantiles are the
// arithmetic midpoint of the holding bucket, so their relative error is
// bounded by the log2 bucket width (< 2x), which is plenty to tell a
// stalled stage from a busy one.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	MaxNs   int64    `json:"max_ns"`
	MeanNs  float64  `json:"mean_ns"`
	P50Ns   float64  `json:"p50_ns"`
	P90Ns   float64  `json:"p90_ns"`
	P99Ns   float64  `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot merges every shard and derives the summary statistics.
// Safe to call concurrently with writers: each atomic is read once, so
// the snapshot is a consistent-enough view for monitoring (counts may
// trail sums by in-flight observations).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var buckets [histBuckets]int64
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.SumNs += sh.sum.Load()
		if m := sh.max.Load(); m > s.MaxNs {
			s.MaxNs = m
		}
		for b := range sh.buckets {
			buckets[b] += sh.buckets[b].Load()
		}
	}
	if s.Count > 0 {
		s.MeanNs = float64(s.SumNs) / float64(s.Count)
	}
	s.P50Ns = quantile(&buckets, s.Count, 0.50)
	s.P90Ns = quantile(&buckets, s.Count, 0.90)
	s.P99Ns = quantile(&buckets, s.Count, 0.99)
	for b, c := range buckets {
		if c > 0 {
			_, hi := bucketBounds(b)
			s.Buckets = append(s.Buckets, Bucket{LtNs: hi, Count: c})
		}
	}
	return s
}

// quantile estimates the p-quantile from merged bucket counts: the
// midpoint of the bucket holding the rank-⌈p·n⌉ observation.
func quantile(buckets *[histBuckets]int64, n int64, p float64) float64 {
	if n == 0 {
		return 0
	}
	rank := int64(p * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range buckets {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			lo, hi := bucketBounds(b)
			return float64(lo+hi) / 2
		}
	}
	return 0
}

// Span is an in-flight stage timing: obs.Start(h) (or StartShard for a
// per-worker shard) stamps the monotonic clock, End records the elapsed
// nanoseconds into the histogram. Spans are values — starting and
// ending one never allocates — and a span started from a nil histogram
// or shard is inert.
type Span struct {
	sh *HistShard
	t0 time.Time
}

// Start opens a span recording into h's shard 0 on End.
func Start(h *Histogram) Span { return StartShard(h.Shard(0)) }

// StartShard opens a span recording into the given shard on End.
func StartShard(sh *HistShard) Span {
	if sh == nil {
		return Span{}
	}
	return Span{sh: sh, t0: time.Now()}
}

// End records the span's elapsed time. time.Since reads the monotonic
// clock, so recorded durations are monotone non-negative (pinned under
// -race by TestSpanConcurrentWriters).
func (sp Span) End() {
	if sp.sh == nil {
		return
	}
	sp.sh.Observe(int64(time.Since(sp.t0)))
}
