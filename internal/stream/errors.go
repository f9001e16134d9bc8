package stream

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/timegrid"
)

// WorkerPanic is a panic recovered inside a pipeline worker — a day
// producer, a parallel shard task, the serial merge stage or a sweep
// runner — converted into an error so one poisoned goroutine fails the
// run instead of crashing the process. It carries enough context to
// reproduce: the stage, the shard (or -1), the simulated day (or -1)
// and the stack at the recover site.
//
// Every Run/RunSweepParallelOpts failure caused by a panic satisfies
// errors.As(err, **WorkerPanic); see RELIABILITY.md for the failure
// semantics per stage.
type WorkerPanic struct {
	Stage string          // "produce", "shard", "merge", "sweep", …
	Shard int             // shard index, or -1 when the stage is unsharded
	Day   timegrid.SimDay // simulated day, or -1 when not day-scoped
	Value any             // the value passed to panic()
	Stack []byte          // debug.Stack() at the recover site
}

func (p *WorkerPanic) Error() string {
	where := p.Stage
	if p.Shard >= 0 {
		where = fmt.Sprintf("%s shard %d", where, p.Shard)
	}
	if p.Day >= 0 {
		where = fmt.Sprintf("%s day %d", where, p.Day)
	}
	return fmt.Sprintf("stream: worker panic in %s: %v", where, p.Value)
}

// NewWorkerPanic wraps a recovered panic value (with the current
// stack) for stages outside this package — the sweep runner uses it so
// every layer reports panics through the one type.
func NewWorkerPanic(stage string, shard int, day timegrid.SimDay, value any) *WorkerPanic {
	return &WorkerPanic{Stage: stage, Shard: shard, Day: day, Value: value, Stack: debug.Stack()}
}

// capturePanic is the deferred recover helper of the pipeline stages:
//
//	defer capturePanic(&err, "shard", shard, day)
//
// It converts a panic into a *WorkerPanic stored in *dst, leaving an
// already-set error alone (first failure wins inside one goroutine).
func capturePanic(dst *error, stage string, shard int, day timegrid.SimDay) {
	if v := recover(); v != nil {
		if *dst == nil {
			*dst = NewWorkerPanic(stage, shard, day, v)
		}
	}
}

// doubleReleases counts rejected buffer releases process-wide: a
// DayBatch released twice, or a stale batch copy released after its
// store was re-issued. Every BufferPool — the simulator's and the feed
// replayer's — reports here and refuses instead of corrupting its free
// list; chaos tests assert the
// counter stays flat across clean and faulted runs.
var doubleReleases atomic.Int64

// DoubleReleases returns the number of rejected (double or stale)
// buffer releases seen process-wide since start.
func DoubleReleases() int64 { return doubleReleases.Load() }
