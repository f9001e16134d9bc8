package stream

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Recycler returns a pooled backing store to its free list. Gen is the
// checkout generation the batch was drawn with; implementations reject
// mismatched generations (double or stale releases) instead of
// recycling a store someone else owns — see BufferPool.
type Recycler interface {
	Recycle(gen uint64)
}

// DayBatch is one simulated day of feed records. Cells and Events are
// nil when the source does not carry that feed.
type DayBatch struct {
	Day    timegrid.SimDay
	Traces []mobsim.DayTrace
	Cells  []traffic.CellDay
	Events []signaling.Event

	// Owner/Gen, when Owner is non-nil, return the batch's pooled
	// backing store on Release. Gen stamps the checkout, so a released
	// batch (or any copy of it) can never recycle a store that has
	// since been re-issued. Sources set these (DayStore.Batch);
	// everyone else calls Release.
	Owner Recycler
	Gen   uint64
}

// Release hands the batch's buffers back to their source, exactly once
// per batch value; it is a no-op for batches without an Owner.
// The engine calls it after the merge stage of each day, so consumers
// must not retain the batch's slices past EndDay/ConsumeDay — copy
// anything they keep. Releasing copies of one batch more than once in
// total is reported and refused by pooled owners (DoubleReleases).
func (b *DayBatch) Release() {
	if o := b.Owner; o != nil {
		b.Owner = nil
		o.Recycle(b.Gen)
	}
}

// Source delivers day batches in ascending day order; Next returns
// io.EOF when the stream is exhausted, and any other error to abort
// the run (cancellation surfaces as the context's error).
type Source interface {
	Next() (DayBatch, error)
}

// Stopper is the optional early-shutdown half of a Source. The engine
// calls Stop when it abandons a source before EOF — on cancellation or
// a downstream failure — so producer goroutines exit and in-flight
// pooled buffers return to their free lists. Stop must be idempotent.
type Stopper interface {
	Stop()
}

// stopSource stops src if it knows how to be stopped.
func stopSource(src Source) {
	if st, ok := src.(Stopper); ok {
		st.Stop()
	}
}

// errStopped is returned by Next on a source that was stopped before
// its stream ended (calling Next after Stop is a caller bug; the error
// makes it loud instead of a hang).
var errStopped = errors.New("stream: source stopped")

// SimSource produces day batches from the live simulator. Day
// generation — mobsim.Simulator.DayInto plus, when a traffic engine is
// attached, traffic.Engine.DayAppend on a per-worker clone — is the dominant
// cost of the whole pipeline and is embarrassingly parallel across days,
// so the source computes days ahead on a worker pool and re-sequences
// them: Next always returns days in order.
//
// Backpressure: at most workers+buffer days are claimed but not yet
// returned by Next, so memory stays bounded no matter how far the
// consumer falls behind.
//
// Buffer recycling: each batch is produced into a pooled backing store
// (a mobsim.DayBuffer plus a CellDay slice) drawn from a bounded free
// list. A consumer that calls DayBatch.Release when done (the stream
// engine does, after each day's merge stage) keeps the whole run at
// O(workers+buffer) live day buffers; a consumer that never releases
// merely falls back to one allocation set per day, as before.
//
// Failure semantics: a producer panic is recovered into a
// *WorkerPanic, cancellation of the construction context surfaces as
// its ctx.Err() — either stops all workers, releases every in-flight
// pooled buffer back to the free list, and is returned by the next
// Next call. The source never crashes the process.
type SimSource struct {
	out  chan DayBatch
	done chan struct{}
	stop sync.Once
	pool *BufferPool
	fi   *fault.Injector
	m    *sourceMetrics

	mu  sync.Mutex
	err error // first failure: worker panic, injected error or ctx.Err
}

// sourceMetrics are the source's handles, resolved once in
// NewSimSource. When nil (the default) the producer loop takes no
// timestamps at all — the disabled path does zero clock reads.
type sourceMetrics struct {
	busy       *obs.Counter   // stream.worker.busy_ns: producing (DayInto + DayAppend)
	idle       *obs.Counter   // stream.worker.idle_ns: waiting for the window or the sequencer
	produce    *obs.Histogram // stream.produce_day_ns: per-day production latency, one shard per worker
	stall      *obs.Histogram // stream.resequence.stall_ns: wait of a done day on its predecessors
	outOfOrder *obs.Counter   // stream.resequence.out_of_order: days finishing ahead of the emit cursor
}

func newSourceMetrics(r *obs.Registry, workers int) *sourceMetrics {
	if r == nil {
		return nil
	}
	return &sourceMetrics{
		busy:       r.Counter("stream.worker.busy_ns"),
		idle:       r.Counter("stream.worker.idle_ns"),
		produce:    r.Histogram("stream.produce_day_ns", workers),
		stall:      r.Histogram("stream.resequence.stall_ns", 1),
		outOfOrder: r.Counter("stream.resequence.out_of_order"),
	}
}

// NewSimSource streams days [first, limit). A nil engine skips KPI
// generation (mobility-only runs). cfg sizes the worker pool and the
// backpressure window; ctx cancels production (workers stop within one
// day of work and pooled buffers are recycled). The source recycles
// through a private BufferPool sized to its in-flight window.
func NewSimSource(ctx context.Context, sim *mobsim.Simulator, eng *traffic.Engine, first, limit timegrid.SimDay, cfg Config) *SimSource {
	cfg = cfg.WithDefaults()
	s := &SimSource{
		out:  make(chan DayBatch),
		done: make(chan struct{}),
		pool: NewBufferPool(cfg.Workers + cfg.Buffer).Instrument(cfg.Metrics),
		fi:   cfg.Fault,
		m:    newSourceMetrics(cfg.Metrics, cfg.Workers),
	}
	go s.run(ctx, sim, eng, first, limit, cfg)
	return s
}

// Next returns the next day batch, in day order. After the stream ends
// it returns io.EOF; after a failure (producer panic, injected fault,
// cancellation) it returns that failure.
func (s *SimSource) Next() (DayBatch, error) {
	b, ok := <-s.out
	if !ok {
		if err := s.failure(); err != nil {
			return DayBatch{}, err
		}
		select {
		case <-s.done:
			return DayBatch{}, errStopped
		default:
		}
		return DayBatch{}, io.EOF
	}
	return b, nil
}

// Stop abandons the stream early: producer goroutines exit within one
// day of work and in-flight pooled buffers are recycled. Idempotent;
// Next must not be called after Stop (it returns errStopped if it is).
func (s *SimSource) Stop() { s.stop.Do(func() { close(s.done) }) }

// fail records the first failure and stops the stream.
func (s *SimSource) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.Stop()
}

func (s *SimSource) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// produceDay computes one day into a pooled store. Panics are recovered
// into a *WorkerPanic and the store is recycled on every failure path,
// so a poisoned day can neither crash the process nor leak its buffer.
func (s *SimSource) produceDay(sim *mobsim.Simulator, eng *traffic.Engine, day timegrid.SimDay) (b DayBatch, err error) {
	st := s.pool.Draw()
	b = st.Batch()
	defer func() {
		if v := recover(); v != nil {
			err = NewWorkerPanic("produce", -1, day, v)
		}
		if err != nil {
			b.Release()
			b = DayBatch{}
		}
	}()
	if err = s.fi.Fire(fault.ProduceDay, int64(day)); err != nil {
		return b, err
	}
	b.Day, b.Traces = day, sim.DayInto(st.Buf, day)
	if eng != nil {
		st.Cells = eng.DayAppend(st.Cells[:0], day, b.Traces)
		b.Cells = st.Cells
	}
	return b, nil
}

func (s *SimSource) run(ctx context.Context, sim *mobsim.Simulator, eng *traffic.Engine, first, limit timegrid.SimDay, cfg Config) {
	defer close(s.out)
	if first >= limit {
		return
	}
	total := int(limit - first)
	window := cfg.Workers + cfg.Buffer

	// sem bounds the days in flight; a token is taken before a day is
	// claimed and released when the sequencer hands the day out. Days
	// are claimed in ascending order, so the lowest unemitted day is
	// always already being computed — the window cannot deadlock.
	sem := make(chan struct{}, window)
	results := make(chan DayBatch)
	var next int64 = int64(first)

	// Clone the per-worker engines before any worker starts: Clone
	// snapshots the engine struct, which races with the scratch writes
	// of a DayAppend already running on the original. Instrument before
	// cloning, so every clone shares the original's metric handles and
	// the whole pool aggregates into one traffic.day_ns.
	if eng != nil {
		eng.Instrument(cfg.Metrics)
	}
	engines := make([]*traffic.Engine, cfg.Workers)
	for w := range engines {
		engines[w] = eng
		if eng != nil && w > 0 {
			engines[w] = eng.Clone()
		}
	}
	m := s.m
	for w := 0; w < cfg.Workers; w++ {
		go func(w int, eng *traffic.Engine) {
			// psh is this worker's private produce-latency shard; nil
			// (no-op) when metrics are off.
			var psh *obs.HistShard
			if m != nil {
				psh = m.produce.Shard(w)
			}
			for {
				var t0 time.Time
				if m != nil {
					t0 = time.Now()
				}
				select {
				case sem <- struct{}{}:
				case <-s.done:
					return
				case <-ctx.Done():
					s.fail(ctx.Err())
					return
				}
				day := timegrid.SimDay(atomic.AddInt64(&next, 1) - 1)
				if day >= limit {
					<-sem
					return
				}
				var t1 time.Time
				if m != nil {
					t1 = time.Now()
					m.idle.Add(int64(t1.Sub(t0)))
				}
				b, err := s.produceDay(sim, eng, day)
				if err != nil {
					s.fail(err)
					return
				}
				var t2 time.Time
				if m != nil {
					t2 = time.Now()
					busy := int64(t2.Sub(t1))
					m.busy.Add(busy)
					psh.Observe(busy)
				}
				select {
				case results <- b:
				case <-s.done:
					b.Release()
					return
				case <-ctx.Done():
					b.Release()
					s.fail(ctx.Err())
					return
				}
				if m != nil {
					m.idle.Add(int64(time.Since(t2)))
				}
			}
		}(w, engines[w])
	}

	// Sequencer: emit in day order. When metrics are on, a day that
	// finishes ahead of the emit cursor is stamped on arrival and its
	// stall — the time it sits in pending waiting for its predecessors —
	// is recorded when it finally emits. High stall times mean one slow
	// day is serializing the window (grow Buffer, or chase the slow day
	// via stream.produce_day_ns).
	var arrived map[timegrid.SimDay]time.Time
	if m != nil {
		arrived = make(map[timegrid.SimDay]time.Time, window)
	}
	pending := make(map[timegrid.SimDay]DayBatch, window)
	// releasePending recycles every batch the sequencer still holds, so
	// an abandoned stream returns its pooled buffers to the free list.
	releasePending := func() {
		for day, b := range pending {
			b.Release()
			delete(pending, day)
		}
	}
	emit := first
	for received := 0; received < total; {
		var b DayBatch
		select {
		case b = <-results:
		case <-s.done:
			releasePending()
			return
		case <-ctx.Done():
			s.fail(ctx.Err())
			releasePending()
			return
		}
		received++
		pending[b.Day] = b
		if m != nil && b.Day != emit {
			m.outOfOrder.Inc()
			arrived[b.Day] = time.Now()
		}
		for {
			nb, ok := pending[emit]
			if !ok {
				break
			}
			delete(pending, emit)
			if m != nil {
				if t, ok := arrived[emit]; ok {
					m.stall.Observe(int64(time.Since(t)))
					delete(arrived, emit)
				}
			}
			select {
			case s.out <- nb:
			case <-s.done:
				nb.Release()
				releasePending()
				return
			case <-ctx.Done():
				s.fail(ctx.Err())
				nb.Release()
				releasePending()
				return
			}
			<-sem
			emit++
		}
	}
}

// Prefetch wraps a source with a decode-ahead goroutine: up to n day
// batches are produced before the consumer asks for them, so e.g. CSV
// feed decoding overlaps with analytics. The bounded channel is the
// backpressure: a slow consumer stalls the producer after n batches.
// The wrapper is a Stopper: stopping it ends the decode goroutine,
// releases the prefetched batches and stops the wrapped source.
func Prefetch(src Source, n int) Source {
	if n < 1 {
		n = 1
	}
	p := &prefetchSource{
		src:  src,
		ch:   make(chan DayBatch, n),
		errc: make(chan error, 1),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.ch)
		for {
			b, err := src.Next()
			if err != nil {
				p.errc <- err
				return
			}
			select {
			case p.ch <- b:
			case <-p.done:
				b.Release()
				p.errc <- errStopped
				return
			}
		}
	}()
	return p
}

type prefetchSource struct {
	src  Source
	ch   chan DayBatch
	errc chan error
	err  error
	done chan struct{}
	stop sync.Once
}

func (p *prefetchSource) Next() (DayBatch, error) {
	b, ok := <-p.ch
	if !ok {
		if p.err == nil {
			p.err = <-p.errc
		}
		return DayBatch{}, p.err
	}
	return b, nil
}

// Stop ends the decode-ahead goroutine, releases every batch still in
// the prefetch window and stops the wrapped source. Idempotent; Next
// must not be called after Stop.
func (p *prefetchSource) Stop() {
	p.stop.Do(func() {
		close(p.done)
		// Stop the wrapped source first: the producer may be blocked
		// inside src.Next, and a stopped source returns an error there.
		stopSource(p.src)
		// The producer exits on done (or on its source's next error) and
		// closes ch on the way out; draining releases whatever it had
		// already decoded.
		for b := range p.ch {
			b.Release()
		}
	})
}

// sliceSource replays pre-built batches; used by tests and by feed
// adapters that already hold a window in memory.
type sliceSource struct {
	batches []DayBatch
	i       int
}

// NewSliceSource returns a Source over in-memory batches, in the order
// given.
func NewSliceSource(batches []DayBatch) Source { return &sliceSource{batches: batches} }

func (s *sliceSource) Next() (DayBatch, error) {
	if s.i >= len(s.batches) {
		return DayBatch{}, io.EOF
	}
	b := s.batches[s.i]
	s.i++
	return b, nil
}
