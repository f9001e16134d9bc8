package signaling

import (
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/devices"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

var (
	fixOnce sync.Once
	fixPop  *popsim.Population
	fixSim  *mobsim.Simulator
	fixGen  *Generator
)

func fixture(t *testing.T) (*popsim.Population, *mobsim.Simulator, *Generator) {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		fixPop = popsim.Synthesize(m, topo, popsim.Config{
			Seed: 1, TargetUsers: 1500, M2MFraction: 0.1, RoamerFraction: 0.05,
		})
		fixSim = mobsim.New(fixPop, pandemic.Default(), 1)
		fixGen = NewGenerator(fixPop, 1)
	})
	return fixPop, fixSim, fixGen
}

func TestEventTypeStrings(t *testing.T) {
	for et := EventType(0); int(et) < NumEventTypes; et++ {
		if et.String() == "" {
			t.Errorf("event type %d has no name", et)
		}
	}
	if Attach.String() != "attach" || Handover.String() != "handover" {
		t.Error("event names wrong")
	}
}

func TestUserDayEventStream(t *testing.T) {
	pop, sim, gen := fixture(t)
	day := timegrid.SimDay(25)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	topo := pop.Topology()

	var events []Event
	gen.Day(day, traces, func(e Event) { events = append(events, e) })
	if len(events) == 0 {
		t.Fatal("no events generated")
	}

	byType := map[EventType]int{}
	usersSeen := map[popsim.UserID]bool{}
	for _, e := range events {
		byType[e.Type]++
		usersSeen[e.User] = true
		if e.Day != day {
			t.Fatalf("event day %d, want %d", e.Day, day)
		}
		if e.SecOfDay < 0 || e.SecOfDay >= 86_400 {
			t.Fatalf("event second %d", e.SecOfDay)
		}
		tower := topo.Tower(e.Tower)
		if int(e.Sector) >= tower.Sectors {
			t.Fatalf("sector %d on a %d-sector tower", e.Sector, tower.Sectors)
		}
		if !tower.HasRAT[e.RAT] {
			t.Fatalf("event on RAT %v unsupported by the tower", e.RAT)
		}
	}
	// Every core event type appears in a national day.
	for _, et := range []EventType{Attach, Authentication, ServiceRequest, IdleTransition, Handover, TrackingAreaUpdate} {
		if byType[et] == 0 {
			t.Errorf("no %v events in a full day", et)
		}
	}
	// Every native user attaches.
	if len(usersSeen) < len(traces) {
		t.Errorf("events cover %d users, traces %d", len(usersSeen), len(traces))
	}
}

func TestEventDeterminism(t *testing.T) {
	_, sim, gen := fixture(t)
	day := timegrid.SimDay(30)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	var a, b []Event
	gen.Day(day, traces, func(e Event) { a = append(a, e) })
	gen.Day(day, traces, func(e Event) { b = append(b, e) })
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical generations", i)
		}
	}
}

func TestRoamersVanishAfterRestrictions(t *testing.T) {
	pop, sim, gen := fixture(t)
	countRoamerEvents := func(day timegrid.SimDay) int {
		n := 0
		traces := sim.DayInto(mobsim.NewDayBuffer(), day)
		gen.Day(day, traces, func(e Event) {
			if pop.User(e.User).Kind == popsim.InboundRoamer {
				n++
			}
		})
		return n
	}
	before := countRoamerEvents(timegrid.SimDay(timegrid.StudyDayOffset + 3))
	after := countRoamerEvents(timegrid.SimDay(timegrid.StudyDayOffset + 45))
	if before == 0 {
		t.Fatal("no roamer events at baseline")
	}
	if after >= before/2 {
		t.Errorf("roamer events: before %d, after %d — travel bans should empty them", before, after)
	}
}

func TestM2MStationary(t *testing.T) {
	pop, _, gen := fixture(t)
	for i := range pop.Users {
		u := &pop.Users[i]
		if u.Kind != popsim.NativeM2M {
			continue
		}
		gen.MachineDay(u, 40, func(e Event) {
			if e.Tower != u.HomeTower {
				t.Fatalf("M2M SIM %d moved towers", u.ID)
			}
		})
	}
}

func TestAggregator(t *testing.T) {
	_, sim, gen := fixture(t)
	agg := NewAggregator()
	day := timegrid.SimDay(10)
	gen.Day(day, sim.DayInto(mobsim.NewDayBuffer(), day), agg.Consume)
	if agg.Total == 0 {
		t.Fatal("aggregator saw nothing")
	}
	var typeSum int64
	for _, n := range agg.ByType {
		typeSum += n
	}
	if typeSum != agg.Total {
		t.Errorf("type totals %d != national %d", typeSum, agg.Total)
	}
	// Failure rate is small but present.
	if fr := float64(agg.Failures) / float64(agg.Total); fr <= 0 || fr > 0.02 {
		t.Errorf("failure rate = %v", fr)
	}
}

// TestFilterPopulation replays the §2.3 funnel from each SIM's device
// class and PLMN (M2M first, then inbound roamers, then non-smartphones)
// and checks that what it keeps is exactly the native-smartphone
// population.
func TestFilterPopulation(t *testing.T) {
	pop, _, _ := fixture(t)
	var m2m, roamers, nonSmart, native int
	for i := range pop.Users {
		u := &pop.Users[i]
		kept := false
		switch {
		case u.Device.Class == devices.ClassM2M:
			m2m++
		case u.PLMN != devices.HomePLMN:
			roamers++
		case u.Device.Class != devices.ClassSmartphone:
			nonSmart++
		default:
			native++
			kept = true
		}
		if kept != (u.Kind == popsim.NativeSmartphone) {
			t.Fatalf("user %d: kind %v, funnel keeps it: %v", i, u.Kind, kept)
		}
	}
	if native != len(pop.Native()) {
		t.Errorf("native smartphones = %d, want %d", native, len(pop.Native()))
	}
	if m2m == 0 || roamers == 0 {
		t.Error("filter should drop M2M and roamers")
	}
	if nonSmart != 0 {
		t.Errorf("%d native non-M2M SIMs carry a non-smartphone device", nonSmart)
	}
	if native+m2m+roamers+nonSmart != len(pop.Users) {
		t.Error("filter funnel does not add up")
	}
	// The analysis population dominates, as in the paper (~22M of all
	// SIMs are native smartphones).
	if frac := float64(native) / float64(len(pop.Users)); frac < 0.8 {
		t.Errorf("native smartphone share = %v", frac)
	}
}

func TestRATShare75On4G(t *testing.T) {
	pop, sim, gen := fixture(t)
	// Attribute each visit's dwell to the RAT the event generator's
	// camping model picks for it.
	var seconds [radio.NumRATs]float64
	for _, day := range []timegrid.SimDay{23, 24, 25} {
		for _, tr := range sim.DayInto(mobsim.NewDayBuffer(), day) {
			u := pop.User(tr.User)
			src := rng.Stream2(gen.seed, uint64(tr.User), uint64(day))
			for _, v := range tr.Visits {
				seconds[gen.ratFor(u, pop.Topology().Tower(v.Tower()), &src)] += float64(v.Seconds())
			}
		}
	}
	var total float64
	for _, s := range seconds {
		total += s
	}
	var shares [radio.NumRATs]float64
	for i, s := range seconds {
		shares[i] = s / total
	}
	// §2.4: users spend ~75% of connected time on 4G.
	if shares[radio.RAT4G] < 0.65 || shares[radio.RAT4G] > 0.85 {
		t.Errorf("4G time share = %v, want ≈0.75", shares[radio.RAT4G])
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares[radio.RAT3G] <= shares[radio.RAT2G] {
		t.Error("3G share should exceed 2G")
	}
}

func TestEmptyTraceProducesNoEvents(t *testing.T) {
	_, _, gen := fixture(t)
	tr := mobsim.DayTrace{User: 0}
	n := 0
	gen.UserDay(&tr, 5, func(Event) { n++ })
	if n != 0 {
		t.Errorf("empty trace produced %d events", n)
	}
}
