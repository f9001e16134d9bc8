package mobsim

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/census"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

var (
	fix8kOnce sync.Once
	fix8kSim  *Simulator
)

// fixture8k is an 8k-user world: a simulated day holds ~65k visits, so
// it spans several arena blocks (the 2,500-user fixture fills one).
func fixture8k(t *testing.T) *Simulator {
	t.Helper()
	fix8kOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 1, TargetUsers: 8000})
		fix8kSim = New(pop, pandemic.Default(), 1)
	})
	return fix8kSim
}

// testVisit is the k-th distinct visit of a test stream, so a visit
// landing in the wrong place never compares equal by accident.
func testVisit(k int) Visit {
	return MakeVisit(radio.TowerID(k%50_000), timegrid.Bin(k%timegrid.BinsPerDay), int32(k%86_400), k%3 == 0)
}

// appendTraces begins one trace per length, user IDs 0, 1, …, and
// appends its visits one at a time, as the feed readers do.
func appendTraces(d *DayBuffer, lengths ...int) {
	k := 0
	for i, n := range lengths {
		d.BeginUser(popsim.UserID(i))
		for j := 0; j < n; j++ {
			d.Append(testVisit(k))
			k++
		}
	}
}

// fillTraces is appendTraces returning the expected contents.
func fillTraces(d *DayBuffer, lengths ...int) [][]Visit {
	appendTraces(d, lengths...)
	want := make([][]Visit, len(lengths))
	k := 0
	for i, n := range lengths {
		for j := 0; j < n; j++ {
			want[i] = append(want[i], testVisit(k))
			k++
		}
	}
	return want
}

// checkTraces asserts got holds exactly want (user IDs 0, 1, …), every
// view capacity-clipped.
func checkTraces(t *testing.T, got []DayTrace, want [][]Visit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d traces, want %d", len(got), len(want))
	}
	for i, tr := range got {
		if tr.User != popsim.UserID(i) {
			t.Fatalf("trace %d: user %d", i, tr.User)
		}
		if len(tr.Visits) != len(want[i]) || cap(tr.Visits) != len(tr.Visits) {
			t.Fatalf("trace %d: len %d cap %d, want len = cap = %d", i, len(tr.Visits), cap(tr.Visits), len(want[i]))
		}
		for j := range tr.Visits {
			if tr.Visits[j] != want[i][j] {
				t.Fatalf("trace %d visit %d: %+v, want %+v", i, j, tr.Visits[j], want[i][j])
			}
		}
	}
}

// startsBlock reports whether the view starts at the head of block b.
func startsBlock(d *DayBuffer, v []Visit, b int) bool {
	return len(v) > 0 && &v[0] == &d.blocks[b][0]
}

// TestDayBufferTraceStraddlingBlockEdge begins a trace three visits
// before the first block's end: it must move whole to the next block,
// contents intact, with the traces around it untouched.
func TestDayBufferTraceStraddlingBlockEdge(t *testing.T) {
	d := NewDayBuffer()
	d.Reset(3)
	want := fillTraces(d, 10, blockVisits-13, 10, 5)
	got := d.Traces()
	checkTraces(t, got, want)
	if d.next != 2 {
		t.Fatalf("%d blocks in use, want 2", d.next)
	}
	if !startsBlock(d, got[2].Visits, 1) {
		t.Error("the straddling trace did not move whole to the second block")
	}
	if &got[3].Visits[0] != &d.blocks[1][len(got[2].Visits)] {
		t.Error("the trace after the moved one is not packed behind it")
	}
}

// TestDayBufferTraceLongerThanBlock builds a trace of 2.5 blocks through
// Append: it gets a block of its own, and its neighbours stay intact.
func TestDayBufferTraceLongerThanBlock(t *testing.T) {
	d := NewDayBuffer()
	d.Reset(0)
	want := fillTraces(d, 7, blockVisits*5/2, 7)
	checkTraces(t, d.Traces(), want)

	// A warm buffer keeps the grown block: the same day refills without
	// allocating.
	allocs := testing.AllocsPerRun(3, func() {
		d.Reset(0)
		appendTraces(d, 7, blockVisits*5/2, 7)
	})
	checkTraces(t, d.Traces(), want)
	if allocs > 0 {
		t.Errorf("refilling a warm buffer allocates %.0f times, want 0", allocs)
	}
}

// TestDayBufferAppendToViewKeepsNeighbours appends to every view of a
// day whose traces sit on both sides of a block edge: each append must
// copy out instead of overwriting the next trace.
func TestDayBufferAppendToViewKeepsNeighbours(t *testing.T) {
	d := NewDayBuffer()
	d.Reset(1)
	// Four traces end exactly at the first block's end; the fifth starts
	// the second block.
	want := fillTraces(d, blockVisits-30, 10, 10, 10, 10, 10)
	got := d.Traces()
	if !startsBlock(d, got[4].Visits, 1) {
		t.Fatal("fixture: the fifth trace does not start the second block")
	}
	for i := range got {
		_ = append(got[i].Visits, testVisit(1<<20+i))
	}
	checkTraces(t, got, want)
	checkTraces(t, d.Traces(), want)
}

// TestDayBufferReserveTraces pins the trace index policy: a cold
// buffer's index is allocated at exactly the reserved size, a warm index
// with room is never reallocated, and growing an index mid-day keeps the
// traces begun so far.
func TestDayBufferReserveTraces(t *testing.T) {
	d := NewDayBuffer()
	d.Reset(0)
	d.ReserveTraces(100)
	want := fillTraces(d, make([]int, 100)...)
	got := d.Traces()
	if cap(got) != 100 {
		t.Fatalf("cold index capacity %d, want exactly 100", cap(got))
	}
	checkTraces(t, got, want)
	index := &got[0]
	for _, n := range []int{50, 100} {
		d.Reset(1)
		d.ReserveTraces(n)
		fillTraces(d, make([]int, n)...)
		if tr := d.Traces(); &tr[0] != index {
			t.Fatalf("a warm index with room for %d traces was reallocated", n)
		}
	}

	d.Reset(2)
	want = fillTraces(d, 3, 1, 2)
	d.ReserveTraces(200)
	if tr := d.Traces(); cap(tr) < 203 {
		t.Fatalf("index capacity %d after reserving 200 more than 3", cap(tr))
	}
	checkTraces(t, d.Traces(), want)
}

// TestDayIntoColdAllocation pins what a fresh buffer costs: one DayInto
// at 8k users allocates at most 1.15× the bytes of the visits and trace
// index it holds.
func TestDayIntoColdAllocation(t *testing.T) {
	s := fixture8k(t)
	const bound = 1.15
	for _, day := range allocDays {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traces := s.DayInto(NewDayBuffer(), day)
		runtime.ReadMemStats(&after)
		visits := 0
		for _, tr := range traces {
			visits += len(tr.Visits)
		}
		held := visits*int(unsafe.Sizeof(Visit{})) + len(traces)*int(unsafe.Sizeof(DayTrace{}))
		alloc := after.TotalAlloc - before.TotalAlloc
		if ratio := float64(alloc) / float64(held); ratio > bound {
			t.Errorf("day %d: fresh DayInto allocated %d B for %d B held (%.2f×), want <= %.2f×",
				day, alloc, held, ratio, bound)
		}
	}
}

// FuzzDayBuffer drives random Reset/BeginUser/Append/Traces sequences
// against a plain [][]Visit model. Every Traces result must equal the
// model, each view capacity-clipped, and the views an earlier Traces call
// returned since the last Reset must still hold what they held then.
func FuzzDayBuffer(f *testing.F) {
	f.Add([]byte{1, 7, 2, 2, 4, 1, 9, 3, 255, 255, 4})
	f.Add([]byte{1, 0, 3, 200, 100, 1, 1, 2, 3, 200, 100, 4, 0, 1, 2, 3, 1, 1, 4})
	f.Add([]byte{1, 5, 3, 255, 10, 3, 255, 10, 3, 255, 10, 4, 1, 6, 2, 4, 5, 1, 8, 3, 255, 255, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDayBuffer()
		var (
			users []popsim.UserID
			model [][]Visit
			views []DayTrace // the last Traces result since Reset
			snap  [][]Visit  // what those views held
			k     int
		)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		appendOne := func() {
			v := testVisit(k)
			k++
			d.Append(v)
			model[len(model)-1] = append(model[len(model)-1], v)
		}
		for len(ops) > 0 {
			switch next() % 5 {
			case 0:
				d.Reset(timegrid.SimDay(next()))
				users, model, views, snap = users[:0], model[:0], nil, nil
			case 1:
				id := popsim.UserID(next())
				d.BeginUser(id)
				users = append(users, id)
				model = append(model, nil)
			case 2:
				if len(model) > 0 {
					appendOne()
				}
			case 3:
				// A run long enough to cross blocks within a few ops.
				n := next()<<8 | next()
				for i := 0; i < n && len(model) > 0; i++ {
					appendOne()
				}
			case 4:
				for i, v := range views {
					for j := range v.Visits {
						if v.Visits[j] != snap[i][j] {
							t.Fatalf("earlier view %d visit %d changed", i, j)
						}
					}
				}
				got := d.Traces()
				if len(got) != len(model) || d.Len() != len(model) {
					t.Fatalf("%d traces (Len %d), model has %d", len(got), d.Len(), len(model))
				}
				snap = snap[:0]
				for i, tr := range got {
					if tr.User != users[i] || len(tr.Visits) != len(model[i]) || cap(tr.Visits) != len(tr.Visits) {
						t.Fatalf("trace %d: user %d len %d cap %d, model user %d len %d",
							i, tr.User, len(tr.Visits), cap(tr.Visits), users[i], len(model[i]))
					}
					for j := range tr.Visits {
						if tr.Visits[j] != model[i][j] {
							t.Fatalf("trace %d visit %d differs from the model", i, j)
						}
					}
					snap = append(snap, append([]Visit(nil), tr.Visits...))
				}
				views = append(views[:0], got...)
			}
		}
	})
}
