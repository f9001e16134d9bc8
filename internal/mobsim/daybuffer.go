package mobsim

import (
	"repro/internal/grow"
	"repro/internal/popsim"
)

// blockVisits is the size of one arena block in visits (8 bytes each,
// so 64 KiB). Big enough that the tail a moved trace leaves behind is
// noise (a trace holds ~10 visits), and small enough that the last,
// partly filled block keeps a fresh day within 1.15× of the bytes it
// holds from 8k users up (TestDayIntoColdAllocation).
const blockVisits = 8 << 10

// DayBuffer is an arena-backed container for one day of traces. Visits
// live in a list of fixed-size blocks; every trace is one contiguous,
// capacity-clipped run inside a block, and a trace that does not fit in
// the current block's tail moves whole to the next block (a trace
// longer than a block gets a block of its own). A fresh buffer therefore
// allocates about what it holds — whole blocks, never a slice regrown
// by copying — and Reset keeps every block, so a warm buffer (grown to
// a typical day) refills without any heap allocation. That is what
// makes the per-day pipeline zero-allocation in steady state. A writer
// that knows the day's trace count up front (the simulator, the
// columnar feed decoder) calls ReserveTraces first, so a cold buffer
// sizes its trace index in one allocation instead of growing it by
// doubling.
//
// The buffer also owns the simulator's per-agent builder scratch, so one
// DayBuffer per goroutine is the unit of concurrency: Simulator.DayInto
// may run on any number of buffers in parallel, never on one buffer from
// two goroutines.
//
// Ownership: everything returned by Traces aliases the buffer and is
// valid only until the next Reset (or DayInto). Callers that keep visits
// past that point must copy them.
type DayBuffer struct {
	blocks [][]Visit  // the arena; blocks[:next] are in use this day
	next   int        // number of blocks in use
	open   []Visit    // the last trace's visits, capacity to its block's end
	traces []DayTrace // one per BeginUser; the last one is open

	// b is the per-agent simulation scratch (bin staging, weight
	// buffers), reused across agents and days.
	b dayBuilder
}

// NewDayBuffer returns an empty buffer; blocks are added as the day
// needs them and retained across Resets.
func NewDayBuffer() *DayBuffer { return &DayBuffer{} }

// Reset empties the buffer for a new day, keeping every block.
func (d *DayBuffer) Reset() {
	d.next = 0
	d.open = nil
	d.traces = d.traces[:0]
}

// ReserveTraces makes room in the trace index for n more BeginUser
// calls. A cold buffer's index is allocated once, of exactly n traces;
// an index with room is left alone, so a warm buffer never reallocates
// it; and a warm index that is short grows as append would, so days
// that slowly get larger do not reallocate it on every larger day.
func (d *DayBuffer) ReserveTraces(n int) {
	d.traces = grow.Reserve(d.traces, n)
}

// BeginUser starts a new trace owned by id; subsequent Append calls add
// its visits. Traces must be begun in the order they should appear.
func (d *DayBuffer) BeginUser(id popsim.UserID) {
	d.sealLast()
	d.open = d.open[len(d.open):] // the block's free tail is the new trace's room
	d.traces = append(d.traces, DayTrace{User: id})
}

// Append adds one visit to the trace begun by the last BeginUser.
func (d *DayBuffer) Append(v Visit) {
	if len(d.open) == cap(d.open) {
		d.reserve(1)
	}
	d.open = append(d.open, v)
}

// Len returns the number of traces begun so far.
func (d *DayBuffer) Len() int { return len(d.traces) }

// Traces returns the per-agent views into the arena. Each view is
// capacity-clipped, so appending to one cannot clobber its neighbour.
// The result aliases the buffer and is valid until the next Reset.
func (d *DayBuffer) Traces() []DayTrace {
	d.sealLast()
	return d.traces
}

// sealLast stores the open trace's capacity-clipped view in the index.
func (d *DayBuffer) sealLast() {
	if n := len(d.traces); n > 0 {
		d.traces[n-1].Visits = d.open[:len(d.open):len(d.open)]
	}
}

// reserve makes room for n more visits in the open trace. When the
// current block's tail is too short, the trace moves whole to the next
// block — a retained one if it is large enough, else a fresh one of
// blockVisits, or of twice the trace's need if that is larger.
func (d *DayBuffer) reserve(n int) {
	if cap(d.open)-len(d.open) >= n {
		return
	}
	need := len(d.open) + n
	var blk []Visit
	if d.next < len(d.blocks) && len(d.blocks[d.next]) >= need {
		blk = d.blocks[d.next]
	} else {
		size := blockVisits
		if need > size {
			size = 2 * need
		}
		blk = make([]Visit, size)
		if d.next < len(d.blocks) {
			d.blocks[d.next] = blk
		} else {
			d.blocks = append(d.blocks, blk)
		}
	}
	d.next++
	d.open = blk[:copy(blk, d.open)]
}
