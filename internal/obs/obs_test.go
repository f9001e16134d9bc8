package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the disabled contract: a nil registry hands out nil
// handles, and every method on a nil handle (and on a zero Span) is a
// no-op rather than a panic — that is what lets call sites wire metrics
// through unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", 4)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Add(1)
	c.Inc()
	g.Set(3)
	h.Observe(5)
	h.Shard(3).Observe(5)
	obsSpan := Start(h)
	obsSpan.End()
	StartShard(nil).End()
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	s := r.Snapshot()
	if s.Schema != SchemaV1 || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	var buf bytes.Buffer
	r.Report(&buf) // must not panic
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("c") != c {
		t.Fatal("repeated lookup must return the same handle")
	}
	g := r.Gauge("g")
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Set = %d, want 7", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns int64
		b  int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 46, histBuckets - 1}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.b {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.b)
		}
	}
	for i := 1; i < histBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		if bucketOf(lo) != i || bucketOf(hi-1) != i {
			t.Errorf("bucket %d bounds [%d,%d) do not round-trip", i, lo, hi)
		}
	}
}

// TestHistogramMergeOrderInvariant is the property test of the
// mergeability contract: the same observations split across any number
// of per-worker shards snapshot to identical bucket counts, count, sum
// and max — the same contract stream.QSketch pins for KPI medians.
func TestHistogramMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	obs := make([]int64, n)
	for i := range obs {
		obs[i] = rng.Int63n(1 << 30)
	}

	// Reference: everything observed into one single-shard histogram.
	ref := NewHistogram(1)
	for _, v := range obs {
		ref.Observe(v)
	}
	want := ref.Snapshot()

	for trial := 0; trial < 10; trial++ {
		// Deal observations to random shards.
		h := NewHistogram(1 + rng.Intn(8))
		for _, v := range obs {
			h.Shard(rng.Intn(8)).Observe(v)
		}
		got := h.Snapshot()
		if got.Count != want.Count || got.SumNs != want.SumNs || got.MaxNs != want.MaxNs {
			t.Fatalf("trial %d: merged summary %+v, want %+v", trial, got, want)
		}
		if len(got.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: %d buckets, want %d", trial, len(got.Buckets), len(want.Buckets))
		}
		for i := range got.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d bucket %d: %+v, want %+v", trial, i, got.Buckets[i], want.Buckets[i])
			}
		}
		if got.P50Ns != want.P50Ns || got.P90Ns != want.P90Ns || got.P99Ns != want.P99Ns {
			t.Fatalf("trial %d: quantiles %v/%v/%v, want %v/%v/%v",
				trial, got.P50Ns, got.P90Ns, got.P99Ns, want.P50Ns, want.P90Ns, want.P99Ns)
		}
	}
}

// TestSpanConcurrentWriters exercises spans from many goroutines under
// the race detector and asserts the recorded timings are monotone
// non-negative: sum and max never go negative, the count matches, and a
// concurrent Snapshot never observes sum < 0 (time.Since on the
// monotonic clock cannot yield a negative span; Observe clamps anyway).
func TestSpanConcurrentWriters(t *testing.T) {
	h := NewHistogram(4)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader: snapshots must stay consistent-enough
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.SumNs < 0 || s.Count < 0 || s.MaxNs < 0 {
				panic("negative snapshot field under concurrency")
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := h.Shard(w)
			for i := 0; i < perWorker; i++ {
				sp := StartShard(sh)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	if s.SumNs < 0 || s.MaxNs < 0 {
		t.Fatalf("negative timing: sum %d, max %d", s.SumNs, s.MaxNs)
	}
}

// TestSnapshotJSONRoundTrip pins the obs/v1 schema: a written snapshot
// parses back with identical content, and two writes of the same state
// are byte-identical (encoding/json sorts map keys).
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("stream.pool.hits").Add(12)
	r.Gauge("sweep.world_builds").Set(1)
	h := r.Histogram("traffic.day_ns", 2)
	h.Shard(0).Observe(1500)
	h.Shard(1).Observe(3000)

	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two writes of the same state differ")
	}
	var s Snapshot
	if err := json.Unmarshal(a.Bytes(), &s); err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if s.Schema != SchemaV1 {
		t.Fatalf("schema = %q, want %q", s.Schema, SchemaV1)
	}
	if s.Counters["stream.pool.hits"] != 12 || s.Gauges["sweep.world_builds"] != 1 {
		t.Fatalf("values lost in round trip: %+v", s)
	}
	hs := s.Histograms["traffic.day_ns"]
	if hs.Count != 2 || hs.SumNs != 4500 || hs.MaxNs != 3000 {
		t.Fatalf("histogram lost in round trip: %+v", hs)
	}
}

func TestReportRenders(t *testing.T) {
	r := New()
	r.Counter("stream.worker.busy_ns").Add(2_500_000)
	r.Histogram("traffic.day_ns", 1).Observe(1_000_000)
	var buf bytes.Buffer
	r.Report(&buf)
	out := buf.String()
	for _, want := range []string{"stream.worker.busy_ns", "2.5ms", "traffic.day_ns", "p90"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestObserveAllocFree pins the hot-path guarantee of the package
// itself: counter adds, gauge sets, histogram observes and span
// start/end pairs perform zero heap allocations.
func TestObserveAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 2)
	sh := h.Shard(1)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(42)
		sh.Observe(1234)
		sp := StartShard(sh)
		sp.End()
	})
	if allocs > 0 {
		t.Errorf("observe path allocates %.1f per op, want 0", allocs)
	}
}

// TestRegistrySnapshotConcurrent takes snapshots while writers run; the
// race detector is the assertion.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	r := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Shard(w).Observe(int64(w))
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		_ = r.Snapshot()
	}
	close(stop)
	wg.Wait()
}
