// Package obs is the pipeline's runtime telemetry layer: atomic
// counters and gauges, a fixed-bucket log2 latency histogram with
// per-worker shards merged on read (mergeable, like stream.QSketch), a
// named Registry, and a Span helper for stage timing. It exists so the
// two parallelism axes of the pipeline — stream workers and sweep runs —
// can be *seen* at runtime instead of inferred from end-of-run wall
// clock.
//
// Design rules, in the repo's idiom:
//
//   - Zero allocation on the hot path. Observing a counter, histogram
//     or span performs only atomic operations on pre-resolved handles;
//     the alloc-pin tests assert the instrumented day loop stays at
//     0 allocs/op.
//   - Nil-safe everywhere. A nil *Registry hands out nil metric
//     handles, and every method on a nil handle is a no-op, so a
//     disabled pipeline pays one nil check per site and the default
//     path stays bit-identical — instrumentation observes, never
//     perturbs.
//   - Mergeable reads. Writers own shards (cache-line padded, so
//     workers never false-share); readers merge on demand. Merging is
//     exact and order-invariant (bucket counts add), pinned by the
//     property tests.
//
// Surfaces: Registry.Snapshot (stable JSON schema, SchemaV1),
// Registry.Handler / Serve (live HTTP JSON plus net/http/pprof), and
// Registry.Report (the human exit table). Command-line wiring lives in
// Flags, which folds internal/prof's -cpuprofile/-memprofile into the
// same story.
package obs

import "sync/atomic"

// cacheLine is the padding unit keeping concurrently-written metrics
// off each other's cache lines.
const cacheLine = 64

// Counter is a monotonically increasing atomic counter, padded to a
// cache line so counters resolved next to each other in a registry
// never false-share. All methods are safe on a nil receiver (no-ops),
// which is how a disabled registry costs one branch per site.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins atomic gauge (same padding and nil-safety
// rules as Counter).
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
