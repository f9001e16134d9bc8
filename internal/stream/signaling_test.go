package stream

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/timegrid"
)

// sameAggregate reports how got differs from want, or "" if it does not.
func sameAggregate(got, want *signaling.Aggregator) string {
	switch {
	case got.Total != want.Total:
		return fmt.Sprintf("total %d, want %d", got.Total, want.Total)
	case got.Failures != want.Failures:
		return fmt.Sprintf("failures %d, want %d", got.Failures, want.Failures)
	case got.ByType != want.ByType:
		return fmt.Sprintf("by type %v, want %v", got.ByType, want.ByType)
	case !slices.Equal(got.ByDistrict, want.ByDistrict):
		return "by-district counts differ"
	}
	return ""
}

// merged sums the shard aggregators of s into one.
func merged(s *Signaling, topo *radio.Topology) *signaling.Aggregator {
	out := signaling.NewAggregator(topo)
	for _, a := range s.aggs {
		out.Total += a.Total
		out.Failures += a.Failures
		for t := range a.ByType {
			out.ByType[t] += a.ByType[t]
		}
		for d, dc := range a.ByDistrict {
			oc := &out.ByDistrict[d]
			oc.Total += dc.Total
			oc.Failures += dc.Failures
			for t := range dc.ByType {
				oc.ByType[t] += dc.ByType[t]
			}
		}
	}
	return out
}

// TestSignalingShardsMatchGeneratorDay checks that the sharded signaling
// stage, driven through the engine's user partition with the M2M and
// roamer background on, merges to exactly what one aggregator fed
// Generator.Day sees — and that replaying the generated events through
// the EventSharder view does too.
func TestSignalingShardsMatchGeneratorDay(t *testing.T) {
	m := census.BuildUK(1)
	topo := radio.Build(m, radio.DefaultConfig(), 1)
	pop := popsim.Synthesize(m, topo, popsim.Config{
		Seed: 1, TargetUsers: 400, M2MFraction: 0.1, RoamerFraction: 0.05,
	})
	sim := mobsim.New(pop, pandemic.Default(), 1)
	gen := signaling.NewGenerator(pop, 1)

	want := signaling.NewAggregator(topo)
	var traceDays, eventDays []DayBatch
	for _, day := range []timegrid.SimDay{3, 30, 70} {
		traces := sim.DayInto(mobsim.NewDayBuffer(), day)
		var events []signaling.Event
		gen.Day(day, traces, func(e signaling.Event) {
			want.Consume(e)
			events = append(events, e)
		})
		traceDays = append(traceDays, DayBatch{Day: day, Traces: traces})
		eventDays = append(eventDays, DayBatch{Day: day, Events: events})
	}

	for _, shards := range []int{1, 2, 4} {
		e := NewEngine(Config{Workers: 2, Shards: shards})
		sig := NewSignaling(gen, topo, shards, true)
		e.AddTraceSharder(sig)
		if err := e.Run(context.Background(), NewSliceSource(traceDays)); err != nil {
			t.Fatal(err)
		}
		if diff := sameAggregate(merged(sig, topo), want); diff != "" {
			t.Errorf("shards=%d traces: %s", shards, diff)
		}

		e = NewEngine(Config{Workers: 2, Shards: shards})
		replay := NewSignaling(gen, topo, shards, false)
		e.AddEventSharder(replay.Events())
		if err := e.Run(context.Background(), NewSliceSource(eventDays)); err != nil {
			t.Fatal(err)
		}
		if diff := sameAggregate(merged(replay, topo), want); diff != "" {
			t.Errorf("shards=%d events: %s", shards, diff)
		}
	}
}
