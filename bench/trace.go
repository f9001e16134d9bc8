package main

import "time"

// span is one timed call into a layer, recorded by bench code around a
// module's public function. Spans nest: Parent is the index of the
// enclosing span (-1 for the root). Run groups the spans of one unit of
// work (one scenario of a sweep, one shard of a replay).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the serial reference composition. A
// nil *tracer records nothing, so the same composition also runs
// untraced, which is how the tracing overhead is measured.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.origin))
	t.open = t.open[:n]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// setRun tags the spans opened from now on with run id r.
func (t *tracer) setRun(r int) {
	if t != nil {
		t.run = r
	}
}

// spanCost measures what recording one span costs: the only work a
// traced composition does beyond the untraced one, which runs the same
// code with a nil tracer.
func spanCost() time.Duration {
	const n = 100_000
	t := &tracer{origin: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin("probe")
		t.end()
	}
	return time.Since(start) / n
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it covered by its child spans. The self
// times of all names add up to the root span's duration.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// durationsMS returns the durations of every span with the given name,
// in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
