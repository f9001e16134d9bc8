package main

import (
	"runtime"
	"time"

	"repro/internal/timegrid"
)

// metricDef names one metric with its unit; BENCHMARK.json lists the
// same names, units and directions.
type metricDef struct{ name, unit string }

// opMeasures are what every untraced op measures. A run's value of each
// is the median over its ops; the e2e lines print it with the op count,
// min and max.
var opMeasures = []metricDef{
	{"setup_s", "s"},      // world build and stack instantiation
	{"wall_s", "s"},       // run phase, from set-up done to output verified
	{"cpu_s", "s"},        // user+sys CPU of the run phase
	{"peak_rss_mb", "MB"}, // the op process's maximum resident set
	{"alloc_mb", "MB"},    // heap bytes allocated in the run phase
}

// e2eMetrics are the op measures BENCHMARK.json bounds, the ones the
// result line reports. wall_s, cpu_s and peak_rss_mb are only printed:
// on the host the bounds were set on, their run-to-run spread is wider
// than the 10% a bound may take (bench/README.md, "Spread").
var e2eMetrics = []metricDef{{"setup_s", "s"}, {"alloc_mb", "MB"}}

// rootSpan encloses the whole reference composition; its self time is
// the work no layer span covers.
const rootSpan = "bench.run"

// setupSpans are reported as seconds of self time: every reference
// composition builds a world and a simulation stack.
var setupSpans = []string{"census.build", "radio.build", "popsim.synthesize", "mobsim.new", "traffic.new_engine"}

// shareSpans are reported as a share of the traced wall time. A layer a
// workload does not run reads 0%.
var shareSpans = []string{
	"mobsim.day", "traffic.day",
	"core.homes", "core.mobility", "core.matrix", "core.kpi", "experiments.figures",
	"signaling.day", "stream.mobility", "stream.kpi",
	"feeds.write", "feeds.partition", "feeds.decode",
	"partial.record", "partial.write", "partial.read", "partial.merge",
}

// layerMetrics are reported with --trace 1.
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, s := range setupSpans {
		out = append(out, metricDef{s + "_s", "s"})
	}
	for _, s := range shareSpans {
		out = append(out, metricDef{s + "_pct", "%"})
	}
	return append(out,
		metricDef{"mobsim.day_ms_p50", "ms"}, metricDef{"mobsim.day_ms_p90", "ms"},
		metricDef{"traffic.day_ms_p50", "ms"}, metricDef{"traffic.day_ms_p90", "ms"},
		metricDef{"mobsim.visits", "count"}, metricDef{"traffic.cell_days", "count"},
		metricDef{"signaling.events", "count"},
		metricDef{"feeds.bytes_written", "bytes"}, metricDef{"feeds.bytes_read", "bytes"},
		metricDef{"partial.bytes", "bytes"},
		metricDef{"stream.source_wait_pct", "%"}, metricDef{"stream.shard_busy_pct", "%"},
		metricDef{"experiments.checkpoint_forks", "count"},
		metricDef{"experiments.prefix_days_saved", "count"},
		metricDef{"experiments.prefix_share", "ratio"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.unaccounted_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// spanLayers derives the per-layer metrics of one traced reference run.
func spanLayers(spans []span, c counts, before, after *runtime.MemStats) map[string]float64 {
	self := selfTimes(spans)
	wall := time.Duration(spans[0].End - spans[0].Start) // the root span
	out := map[string]float64{
		"trace.wall_s":          wall.Seconds(),
		"trace.unaccounted_pct": pct(self[rootSpan], wall),
		"trace.overhead_pct":    pct(spanCost()*time.Duration(len(spans)), wall),
		"mobsim.day_ms_p50":     percentile(durationsMS(spans, "mobsim.day"), 50),
		"mobsim.day_ms_p90":     percentile(durationsMS(spans, "mobsim.day"), 90),
		"traffic.day_ms_p50":    percentile(durationsMS(spans, "traffic.day"), 50),
		"traffic.day_ms_p90":    percentile(durationsMS(spans, "traffic.day"), 90),
		"mobsim.visits":         float64(c.visits),
		"traffic.cell_days":     float64(c.cellDays),
		"signaling.events":      float64(c.events),
		"feeds.bytes_written":   float64(c.bytesWritten),
		"feeds.bytes_read":      float64(c.bytesRead),
		"partial.bytes":         float64(c.partBytes),
		"runtime.gc_cycles":     float64(after.NumGC - before.NumGC),
		"runtime.gc_pause_ms":   float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	for _, s := range setupSpans {
		out[s+"_s"] = self[s].Seconds()
	}
	for _, s := range shareSpans {
		out[s+"_pct"] = pct(self[s], wall)
	}
	return out
}

// opLayers are the per-layer metrics measured on the traced run's op:
// the stream engine seen from outside, and the sweep's prefix sharing.
func opLayers(p *streamProbe, out opOut) map[string]float64 {
	m := map[string]float64{
		"experiments.checkpoint_forks":  float64(out.forks),
		"experiments.prefix_days_saved": float64(out.prefixDays),
	}
	if out.prefixDays > 0 {
		m["experiments.prefix_share"] = float64(out.prefixDays) / float64(out.subOps*timegrid.StudyDays)
	}
	if run := time.Duration(p.run.Load()); run > 0 {
		m["stream.source_wait_pct"] = pct(time.Duration(p.wait.Load()), run)
		m["stream.shard_busy_pct"] = pct(time.Duration(p.busy.Load()), run*time.Duration(p.workers))
	}
	return m
}

func pct(part, whole time.Duration) float64 { return 100 * part.Seconds() / whole.Seconds() }
