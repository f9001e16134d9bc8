package stream

import (
	"sync/atomic"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/signaling"
	"repro/internal/traffic"
)

// BufferPool is a bounded, non-blocking free list of day-production
// backing stores (DayStore: a mobsim.DayBuffer plus reusable CellDay and
// event slices). Every day source recycles through one: a SimSource
// draws from a pool sized to its in-flight window — its own, or one
// shared with the sources run before and after it (NewSimSourcePooled;
// experiments.RunStreamingOn runs both of its passes on one) — and
// feeds.FeedSource owns one sized to its replay pipeline. A consumer
// that releases each batch (the stream engine does, after the merge
// stage) keeps a whole run at a bounded number of live day buffers.
//
// Draws never block: when every pooled store is checked out (or
// consumers never release), Draw allocates a fresh store, so liveness
// cannot depend on Release being called. Returns past the pool's
// capacity are dropped to the GC.
//
// Release safety: every checkout stamps the store with a fresh
// generation, carried on the DayBatch. A release whose generation does
// not match the store's current one — a double release of the same
// batch, or a stale batch copy released after the store was re-issued
// to another producer — is rejected and counted (DoubleReleases,
// stream.pool.double_release) instead of enqueueing a buffer that is
// still owned by someone else.
//
// A pool is safe for concurrent use; a store, once drawn, belongs to
// exactly one producer until its batch is released.
type BufferPool struct {
	free chan *DayStore

	// hits/misses count draws served from the free list versus fresh
	// allocations (stream.pool.hits / stream.pool.misses); nil — a no-op
	// Add — until Instrument is called. A healthy steady state is all
	// hits after the warmup window; a growing miss count means the pool
	// is undersized for the in-flight window or batches are not released.
	hits   *obs.Counter
	misses *obs.Counter
	// doubleRel counts rejected releases (stream.pool.double_release);
	// also mirrored into the process-wide DoubleReleases ledger.
	doubleRel *obs.Counter

	rejected atomic.Int64
}

// Instrument resolves the pool's hit/miss counters from r (nil registry:
// no-op) and returns the receiver. Call before the pool is shared across
// goroutines — the handles are plain fields, written once here.
func (p *BufferPool) Instrument(r *obs.Registry) *BufferPool {
	if r != nil {
		p.hits = r.Counter("stream.pool.hits")
		p.misses = r.Counter("stream.pool.misses")
		p.doubleRel = r.Counter("stream.pool.double_release")
	}
	return p
}

// Rejected returns how many releases this pool refused (double or
// stale); tests pin it at zero on every clean and faulted path.
func (p *BufferPool) Rejected() int64 { return p.rejected.Load() }

// DayStore is one recyclable backing store for a produced day. The
// producer that drew it fills Buf and may grow Cells and Events in
// place (keep the grown slices in the fields so the next checkout
// reuses their capacity); the store returns to its pool when the batch
// from Batch is released. A fresh store's Buf adds arena blocks as its
// first day fills it, allocating about what the day holds, and keeps
// them for every later checkout.
type DayStore struct {
	Buf    *mobsim.DayBuffer
	Cells  []traffic.CellDay
	Events []signaling.Event

	pool *BufferPool
	// out is true while the store is checked out of the free list; gen
	// is bumped at every checkout. Together they make Recycle reject
	// anything but exactly one release of the current checkout.
	out atomic.Bool
	gen atomic.Uint64
}

// Batch returns an empty DayBatch owning the store's current checkout;
// the producer fills in the day and its records. Releasing it (or any
// copy, once) recycles the store.
func (r *DayStore) Batch() DayBatch { return DayBatch{Owner: r, Gen: r.gen.Load()} }

// Recycle implements Recycler: it returns the store to its pool's free
// list iff gen names the store's current checkout and the store is
// still out. Anything else — a second release of the same batch, or a
// stale copy from an earlier checkout — is reported and refused, so a
// buffer can never reach the free list while another producer owns it.
func (r *DayStore) Recycle(gen uint64) {
	if r.gen.Load() != gen || !r.out.CompareAndSwap(true, false) {
		r.pool.rejected.Add(1)
		r.pool.doubleRel.Inc()
		doubleReleases.Add(1)
		return
	}
	select {
	case r.pool.free <- r:
	default:
	}
}

// NewBufferPool builds a pool that retains at most capacity idle
// stores. Size it to the owning source's in-flight window (for
// SimSource, workers + buffer) to stay allocation-free at the steady
// state.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{free: make(chan *DayStore, capacity)}
}

// Draw checks a store out of the pool, reusing a pooled one when
// available, and stamps it with a fresh generation.
func (p *BufferPool) Draw() *DayStore {
	var r *DayStore
	select {
	case r = <-p.free:
		p.hits.Inc()
	default:
		p.misses.Inc()
		r = &DayStore{pool: p, Buf: mobsim.NewDayBuffer()}
	}
	r.gen.Add(1)
	r.out.Store(true)
	return r
}
