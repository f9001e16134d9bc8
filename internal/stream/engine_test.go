package stream

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// recordingSharder records, per shard, the user IDs it received in
// order, and asserts the Begin/Shard/End protocol.
type recordingSharder struct {
	mu      sync.Mutex
	perDay  map[timegrid.SimDay][][]popsim.UserID // [shard] -> users in order
	began   int
	ended   int
	shards  int
	current timegrid.SimDay
}

func newRecordingSharder(shards int) *recordingSharder {
	return &recordingSharder{perDay: make(map[timegrid.SimDay][][]popsim.UserID), shards: shards}
}

func (r *recordingSharder) BeginDay(day timegrid.SimDay, _ []mobsim.DayTrace) {
	r.began++
	r.current = day
	r.perDay[day] = make([][]popsim.UserID, r.shards)
}

func (r *recordingSharder) ShardDay(shard int, day timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	users := make([]popsim.UserID, 0, len(idx))
	for _, i := range idx {
		users = append(users, traces[i].User)
	}
	r.mu.Lock()
	r.perDay[day][shard] = users
	r.mu.Unlock()
}

func (r *recordingSharder) EndDay(day timegrid.SimDay) { r.ended++ }

func syntheticBatches(days, users int) []DayBatch {
	batches := make([]DayBatch, days)
	for d := range batches {
		traces := make([]mobsim.DayTrace, users)
		for u := range traces {
			traces[u] = mobsim.DayTrace{User: popsim.UserID(u)}
		}
		batches[d] = DayBatch{Day: timegrid.SimDay(d), Traces: traces}
	}
	return batches
}

// TestEnginePartitionIsStable asserts the fan-out invariants: every
// index lands on exactly one shard, a user's shard never changes, the
// in-shard order follows input order, and none of it depends on the
// worker count.
func TestEnginePartitionIsStable(t *testing.T) {
	const days, users, shards = 3, 257, 5
	var runs []*recordingSharder
	for _, workers := range []int{1, 4} {
		e := NewEngine(Config{Workers: workers, Shards: shards})
		rec := newRecordingSharder(shards)
		e.AddTraceSharder(rec)
		if err := e.Run(context.Background(), NewSliceSource(syntheticBatches(days, users))); err != nil {
			t.Fatal(err)
		}
		if rec.began != days || rec.ended != days {
			t.Fatalf("protocol: began %d, ended %d, want %d", rec.began, rec.ended, days)
		}
		runs = append(runs, rec)
	}

	for day := timegrid.SimDay(0); day < days; day++ {
		seen := make(map[popsim.UserID]int)
		for s := 0; s < shards; s++ {
			us := runs[0].perDay[day][s]
			// In-shard order must follow input (ascending user ID here).
			if !sort.SliceIsSorted(us, func(i, j int) bool { return us[i] < us[j] }) {
				t.Fatalf("day %d shard %d: not input order", day, s)
			}
			for _, u := range us {
				if _, dup := seen[u]; dup {
					t.Fatalf("user %d on two shards", u)
				}
				seen[u] = s
				if want := ShardOfUser(uint64(u), shards); want != s {
					t.Fatalf("user %d: on shard %d, hash says %d", u, s, want)
				}
			}
		}
		if len(seen) != users {
			t.Fatalf("day %d: %d users covered, want %d", day, len(seen), users)
		}
	}

	// Worker count must not change the partition.
	for day := timegrid.SimDay(0); day < days; day++ {
		for s := 0; s < shards; s++ {
			a, b := runs[0].perDay[day][s], runs[1].perDay[day][s]
			if len(a) != len(b) {
				t.Fatalf("day %d shard %d: partition depends on workers", day, s)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("day %d shard %d: order depends on workers", day, s)
				}
			}
		}
	}
}

// idxRecorder keeps a copy of the index list each shard received on the
// current day; its three faces record one record kind each.
type idxRecorder struct {
	mu  sync.Mutex
	got [][]int
}

func (r *idxRecorder) begin(shards int) { r.got = make([][]int, shards) }

func (r *idxRecorder) record(shard int, idx []int) {
	r.mu.Lock()
	r.got[shard] = append([]int(nil), idx...)
	r.mu.Unlock()
}

func (r *idxRecorder) EndDay(timegrid.SimDay) {}

type traceIdxRecorder struct{ idxRecorder }

func (r *traceIdxRecorder) BeginDay(timegrid.SimDay, []mobsim.DayTrace) {}
func (r *traceIdxRecorder) ShardDay(shard int, _ timegrid.SimDay, _ []mobsim.DayTrace, idx []int) {
	r.record(shard, idx)
}

type cellIdxRecorder struct{ idxRecorder }

func (r *cellIdxRecorder) BeginDay(timegrid.SimDay, []traffic.CellDay) {}
func (r *cellIdxRecorder) ShardDay(shard int, _ timegrid.SimDay, _ []traffic.CellDay, idx []int) {
	r.record(shard, idx)
}

type eventIdxRecorder struct{ idxRecorder }

func (r *eventIdxRecorder) BeginDay(timegrid.SimDay, []signaling.Event) {}
func (r *eventIdxRecorder) ShardDay(shard int, _ timegrid.SimDay, _ []signaling.Event, idx []int) {
	r.record(shard, idx)
}

// appendParts is the reference partition: indices appended to their
// shard's list in input order.
func appendParts(n, shards int, shardOf func(int) int) [][]int {
	parts := make([][]int, shards)
	for i := 0; i < n; i++ {
		s := shardOf(i)
		parts[s] = append(parts[s], i)
	}
	return parts
}

// mixedBatch builds a day of n traces, cells and events whose users and
// cells repeat and arrive out of order.
func mixedBatch(day timegrid.SimDay, n int) DayBatch {
	b := DayBatch{Day: day}
	for i := 0; i < n; i++ {
		u := popsim.UserID(i * 7919 % 613)
		b.Traces = append(b.Traces, mobsim.DayTrace{User: u})
		b.Cells = append(b.Cells, traffic.CellDay{Cell: radio.CellID(i * 104729 % 997)})
		b.Events = append(b.Events, signaling.Event{User: u, Day: day})
	}
	return b
}

// engineSizes are day sizes that grow and shrink, so the flat index
// slices are both regrown and reused.
var engineSizes = []int{40, 300, 7, 0, 520, 90, 521}

// TestEnginePartition checks the counting-sort partition of every record
// kind against an append-based reference: at 1, 3 and 8 shards, each
// shard receives exactly the reference's indices, in input order, on
// days that grow and shrink.
func TestEnginePartition(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		e := NewEngine(Config{Workers: 2, Shards: shards})
		tr, cr, er := &traceIdxRecorder{}, &cellIdxRecorder{}, &eventIdxRecorder{}
		e.AddTraceSharder(tr)
		e.AddKPISharder(cr)
		e.AddEventSharder(er)
		e.startWorkers()
		for d, n := range engineSizes {
			b := mixedBatch(timegrid.SimDay(d), n)
			for _, r := range []*idxRecorder{&tr.idxRecorder, &cr.idxRecorder, &er.idxRecorder} {
				r.begin(shards)
			}
			if err := e.runDay(&b); err != nil {
				t.Fatal(err)
			}
			for _, k := range []struct {
				name string
				got  [][]int
				want [][]int
			}{
				{"traces", tr.got, appendParts(n, shards, func(i int) int { return ShardOfUser(uint64(b.Traces[i].User), shards) })},
				{"cells", cr.got, appendParts(n, shards, func(i int) int { return ShardOfCell(uint64(b.Cells[i].Cell), shards) })},
				{"events", er.got, appendParts(n, shards, func(i int) int { return ShardOfUser(uint64(b.Events[i].User), shards) })},
			} {
				for s := 0; s < shards; s++ {
					if !slices.Equal(k.got[s], k.want[s]) {
						t.Fatalf("%d shards, day %d (%d records): %s shard %d got %v, want %v", shards, d, n, k.name, s, k.got[s], k.want[s])
					}
				}
			}
		}
		e.stopWorkers()
	}
}

type nopTraceSharder struct{}

func (nopTraceSharder) BeginDay(timegrid.SimDay, []mobsim.DayTrace)             {}
func (nopTraceSharder) ShardDay(int, timegrid.SimDay, []mobsim.DayTrace, []int) {}
func (nopTraceSharder) EndDay(timegrid.SimDay)                                  {}

type nopKPISharder struct{}

func (nopKPISharder) BeginDay(timegrid.SimDay, []traffic.CellDay)             {}
func (nopKPISharder) ShardDay(int, timegrid.SimDay, []traffic.CellDay, []int) {}
func (nopKPISharder) EndDay(timegrid.SimDay)                                  {}

type nopEventSharder struct{}

func (nopEventSharder) BeginDay(timegrid.SimDay, []signaling.Event)             {}
func (nopEventSharder) ShardDay(int, timegrid.SimDay, []signaling.Event, []int) {}
func (nopEventSharder) EndDay(timegrid.SimDay)                                  {}

// TestEngineRunDayAllocFree pins the warm day loop: once the partition
// has seen the largest day, runDay with trace, KPI and event sharders
// allocates nothing, whatever the day's size.
func TestEngineRunDayAllocFree(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Shards: 8})
	e.AddTraceSharder(nopTraceSharder{})
	e.AddKPISharder(nopKPISharder{})
	e.AddEventSharder(nopEventSharder{})
	e.startWorkers()
	defer e.stopWorkers()
	batches := make([]DayBatch, len(engineSizes))
	for d, n := range engineSizes {
		batches[d] = mixedBatch(timegrid.SimDay(d), n)
		if err := e.runDay(&batches[d]); err != nil {
			t.Fatal(err)
		}
	}
	d := 0
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.runDay(&batches[d%len(batches)]); err != nil {
			t.Fatal(err)
		}
		d++
	})
	if allocs > 0 {
		t.Errorf("warm runDay allocates %.1f times per day, want 0", allocs)
	}
}

// TestShardOfSpread sanity-checks the hash partition: no empty shard on
// a realistic ID range.
func TestShardOfSpread(t *testing.T) {
	const shards = 8
	var cnt [shards]int
	for u := 0; u < 4096; u++ {
		cnt[ShardOfUser(uint64(u), shards)]++
	}
	for s, c := range cnt {
		if c == 0 {
			t.Fatalf("shard %d empty", s)
		}
		if c < 4096/shards/2 || c > 4096/shards*2 {
			t.Errorf("shard %d badly skewed: %d of 4096", s, c)
		}
	}
	var cellCnt [shards]int
	for c := 0; c < 4096; c++ {
		cellCnt[ShardOfCell(uint64(radio.CellID(c)), shards)]++
	}
	for s, c := range cellCnt {
		if c == 0 {
			t.Fatalf("cell shard %d empty", s)
		}
	}
}

// TestQSketchQuantiles checks the sketch against exact quantiles within
// its documented relative error, and that shard-merging is exact.
func TestQSketchQuantiles(t *testing.T) {
	src := rng.New(11)
	n := 20000
	vals := make([]float64, n)
	whole := NewQSketch()
	parts := []*QSketch{NewQSketch(), NewQSketch(), NewQSketch()}
	for i := range vals {
		// Log-uniform over ~6 decades, like KPI magnitudes.
		v := math.Pow(10, src.Range(-2, 4))
		vals[i] = v
		whole.Add(v)
		parts[i%3].Add(v)
	}
	merged := NewQSketch()
	for _, p := range parts {
		merged.Merge(p)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		exact := vals[int(p*float64(n))]
		got := whole.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.08 {
			t.Errorf("q%.1f: got %g, exact %g, rel err %.3f", p, got, exact, rel)
		}
		if mg := merged.Quantile(p); mg != got {
			t.Errorf("q%.1f: merged %g != whole %g (merge must be exact)", p, mg, got)
		}
	}
	if whole.count != int64(n) || merged.count != int64(n) {
		t.Fatalf("counts: whole %d merged %d want %d", whole.count, merged.count, n)
	}
}

// stateOf snapshots q into a fresh state.
func stateOf(q *QSketch) QSketchState {
	var st QSketchState
	q.StateInto(&st)
	return st
}

// clone returns an independent copy of q.
func clone(q *QSketch) *QSketch {
	return &QSketch{bins: append([]int64(nil), q.bins...), under: q.under, count: q.count}
}

// TestQSketchMergeState pins the snapshot fold: merging parts' states
// into a Reset sketch equals merging the live parts, bin for bin, and a
// snapshot whose window runs past the last bin is refused without
// touching the sketch.
func TestQSketchMergeState(t *testing.T) {
	src := rng.New(5)
	parts := []*QSketch{NewQSketch(), NewQSketch(), NewQSketch()}
	for i := 0; i < 3000; i++ {
		parts[i%3].Add(math.Pow(10, src.Range(-3, 5)))
	}
	parts[1].Add(0)
	want := NewQSketch()
	got := NewQSketch()
	got.Add(42) // stale contents, cleared by the Reset below
	got.Reset()
	for _, p := range parts {
		want.Merge(p)
		if err := got.MergeState(stateOf(p)); err != nil {
			t.Fatalf("MergeState: %v", err)
		}
	}
	if !reflect.DeepEqual(stateOf(got), stateOf(want)) {
		t.Fatal("MergeState of the parts' states differs from Merge of the parts")
	}

	bad := stateOf(parts[0])
	bad.Lo = QSketchBins - len(bad.Bins) + 1
	if err := got.MergeState(bad); err == nil {
		t.Fatal("MergeState accepted a snapshot window past the last bin")
	}
	if !reflect.DeepEqual(stateOf(got), stateOf(want)) {
		t.Fatal("a rejected MergeState changed the sketch")
	}
}

// TestQSketchStateWindows pins the windowed snapshot: State keeps the
// first-to-last non-zero bin window (none for an empty sketch, all bins
// when both end bins are occupied), MergeState of a State rebuilds the
// sketch bin for bin, and a window reaching outside [0, QSketchBins) is
// refused without touching the sketch.
func TestQSketchStateWindows(t *testing.T) {
	empty := NewQSketch()
	empty.Add(0) // underflow only: still no bins
	if st := stateOf(empty); st.Lo != 0 || st.Bins != nil || st.Under != 1 || st.Count != 1 {
		t.Fatalf("empty sketch state %+v, want no bins and the underflow count", st)
	}

	full := NewQSketch()
	full.Add(1.01 * sketchLo) // bin 0
	full.Add(2 * sketchHi)    // saturates into the top bin
	if st := stateOf(full); st.Lo != 0 || len(st.Bins) != QSketchBins {
		t.Fatalf("end-to-end sketch state window [%d,%d), want [0,%d)", st.Lo, st.Lo+len(st.Bins), QSketchBins)
	}

	src := rng.New(9)
	q := NewQSketch()
	for i := 0; i < 500; i++ {
		q.Add(math.Pow(10, src.Range(-1, 2)))
	}
	st := stateOf(q)
	if st.Lo == 0 || st.Lo+len(st.Bins) == QSketchBins || st.Bins[0] == 0 || st.Bins[len(st.Bins)-1] == 0 {
		t.Fatalf("state window [%d,%d) is not the occupied bins", st.Lo, st.Lo+len(st.Bins))
	}
	for _, from := range []*QSketch{q, full, empty} {
		got := NewQSketch()
		if err := got.MergeState(stateOf(from)); err != nil {
			t.Fatalf("MergeState: %v", err)
		}
		if !reflect.DeepEqual(got, from) {
			t.Fatal("MergeState(State()) did not rebuild the sketch bin for bin")
		}
	}

	for _, bad := range []QSketchState{
		{Lo: -1, Bins: []int64{1}, Count: 1},
		{Lo: QSketchBins, Bins: []int64{1}, Count: 1},
		{Lo: 1, Bins: make([]int64, QSketchBins), Count: 1},
		{Lo: math.MaxInt, Bins: []int64{1}, Count: 1},
	} {
		got := clone(q)
		if err := got.MergeState(bad); err == nil {
			t.Errorf("MergeState accepted window [%d,+%d)", bad.Lo, len(bad.Bins))
		}
		if !reflect.DeepEqual(got, q) {
			t.Errorf("a refused window [%d,+%d) changed the sketch", bad.Lo, len(bad.Bins))
		}
	}
}

// TestQSketchEdgeValues covers zero, negative and tiny values.
func TestQSketchEdgeValues(t *testing.T) {
	q := NewQSketch()
	for i := 0; i < 10; i++ {
		q.Add(0)
	}
	if got := q.Median(); got != 0 {
		t.Fatalf("all-zero median: %g", got)
	}
	q.Reset()
	q.Add(-5)
	q.Add(math.NaN())
	q.Add(1e-300)
	if got := q.Median(); got != 0 {
		t.Fatalf("underflow median: %g", got)
	}
	q.Reset()
	if got := q.Median(); got != 0 {
		t.Fatalf("empty median: %g", got)
	}
}

// TestKPIMediansMatchesExact compares the sketch stage's daily medians
// to exact medians within the sketch error.
func TestKPIMediansMatchesExact(t *testing.T) {
	const shards, nCells = 4, 600
	src := rng.New(3)
	cells := make([]traffic.CellDay, nCells)
	for i := range cells {
		cells[i].Cell = radio.CellID(i)
		for m := 0; m < traffic.NumMetrics; m++ {
			cells[i].Values[m] = math.Pow(10, src.Range(0, 3))
		}
	}
	e := NewEngine(Config{Workers: 3, Shards: shards})
	k := NewKPIMedians(shards)
	e.AddKPISharder(k)
	err := e.Run(context.Background(), NewSliceSource([]DayBatch{{Day: 0, Cells: cells}}))
	if err != nil {
		t.Fatal(err)
	}
	row := k.Last()
	if row.Day != 0 || row.Cells != nCells {
		t.Fatalf("row: %+v", row)
	}
	for m := 0; m < traffic.NumMetrics; m++ {
		exact := make([]float64, nCells)
		for i := range cells {
			exact[i] = cells[i].Values[m]
		}
		sort.Float64s(exact)
		want := exact[nCells/2]
		got := row.Medians[m]
		if rel := math.Abs(got-want) / want; rel > 0.08 {
			t.Errorf("metric %d: sketch median %g vs exact %g (rel %.3f)", m, got, want, rel)
		}
	}
}

// TestPrefetchDeliversInOrder checks the decode-ahead wrapper preserves
// order and surfaces EOF.
func TestPrefetchDeliversInOrder(t *testing.T) {
	src := Prefetch(NewSliceSource(syntheticBatches(7, 3)), 2)
	for d := 0; d < 7; d++ {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if int(b.Day) != d {
			t.Fatalf("day %d out of order (got %d)", d, b.Day)
		}
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("want EOF")
	}
}

// producedSource counts the batches its inner source has produced.
type producedSource struct {
	src      Source
	produced atomic.Int64
}

func (s *producedSource) Next() (DayBatch, error) {
	b, err := s.src.Next()
	if err == nil {
		s.produced.Add(1)
	}
	return b, err
}

// TestPrefetchWindowIsN pins Prefetch's window: with the consumer
// holding each batch while it asks for the next, the producer runs
// exactly n batches ahead of what Next has returned, the one it decodes
// while the consumer works included — never n+1, and at n = 1 still one.
func TestPrefetchWindowIsN(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		src := &producedSource{src: NewSliceSource(syntheticBatches(12, 1))}
		p := Prefetch(src, n)
		var held DayBatch
		for got := int64(1); got <= 6; got++ {
			b, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			held.Release()
			held = b
			// Let the producer run as far ahead as the window allows.
			deadline := time.Now().Add(time.Second)
			for src.produced.Load()-got < int64(n) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
			if ahead := src.produced.Load() - got; ahead != int64(n) {
				t.Fatalf("Prefetch(src, %d): %d batches ahead after day %d, want %d", n, ahead, got-1, n)
			}
		}
		held.Release()
		stopSource(p)
	}
}
