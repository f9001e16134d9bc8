package popsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/devices"
	"repro/internal/pandemic"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

var (
	fixOnce sync.Once
	fixPop  *Population
)

// fixture synthesizes one small population shared across tests.
func fixture(t *testing.T) *Population {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		fixPop = Synthesize(m, topo, Config{
			Seed: 1, TargetUsers: 4000, M2MFraction: 0.08, RoamerFraction: 0.03,
		})
	})
	return fixPop
}

func TestPopulationCounts(t *testing.T) {
	p := fixture(t)
	counts := map[SIMKind]int{}
	for i := range p.Users {
		counts[p.Users[i].Kind]++
	}
	native := counts[NativeSmartphone]
	if native < 3600 || native > 4600 {
		t.Errorf("native smartphones = %d, want ≈4000", native)
	}
	if got := counts[NativeM2M]; got < 250 || got > 400 {
		t.Errorf("M2M SIMs = %d, want ≈320", got)
	}
	if got := counts[InboundRoamer]; got < 80 || got > 160 {
		t.Errorf("roamers = %d, want ≈120", got)
	}
	if len(p.Native()) != native {
		t.Errorf("Native() length %d != count %d", len(p.Native()), native)
	}
	// The §2.3 analysis population dominates, as in the paper (~22M of
	// all SIMs are native smartphones).
	if frac := float64(native) / float64(len(p.Users)); frac < 0.8 {
		t.Errorf("native smartphone share = %v", frac)
	}
}

func TestUserInvariants(t *testing.T) {
	p := fixture(t)
	m := p.Model()
	topo := p.Topology()
	for i := range p.Users {
		u := &p.Users[i]
		if u.ID != UserID(i) {
			t.Fatalf("user %d mis-IDed", i)
		}
		d := m.District(u.HomeDistrict)
		if d.County != u.HomeCounty {
			t.Fatalf("user %d district/county mismatch", i)
		}
		if u.Cluster != d.Cluster {
			t.Fatalf("user %d cluster mismatch", i)
		}
		if topo.Tower(u.HomeTower).District != u.HomeDistrict {
			t.Fatalf("user %d home tower outside home district", i)
		}
		if len(u.Anchors) == 0 || u.Anchors[0].Kind != AnchorHome {
			t.Fatalf("user %d anchors must start with home", i)
		}
		if u.Kind == NativeSmartphone {
			// 3–8 important places per the literature: home + work +
			// 1–6 others.
			if n := len(u.Anchors); n < 2 || n > 8 {
				t.Errorf("user %d has %d anchors", i, n)
			}
			if u.Device.Class != devices.ClassSmartphone {
				t.Errorf("native analysis user %d has non-smartphone device", i)
			}
			if u.PLMN != devices.HomePLMN {
				t.Errorf("native user %d has foreign PLMN", i)
			}
		}
		if u.Kind == InboundRoamer && u.PLMN == devices.HomePLMN {
			t.Errorf("roamer %d has native PLMN", i)
		}
		if u.Kind == NativeM2M && u.Device.Class != devices.ClassM2M {
			t.Errorf("M2M SIM %d has device class %v", i, u.Device.Class)
		}
	}
}

func TestWorkersHaveWorkAnchor(t *testing.T) {
	p := fixture(t)
	for _, id := range p.Native() {
		u := p.User(id)
		if u.Worker() {
			if len(u.Anchors) < 2 || u.Anchors[1].Kind != AnchorWork {
				t.Fatalf("worker %d lacks work anchor", id)
			}
		} else {
			for _, a := range u.Anchors {
				if a.Kind == AnchorWork {
					t.Fatalf("non-worker %d has a work anchor", id)
				}
			}
		}
	}
}

func TestProfileDistribution(t *testing.T) {
	p := fixture(t)
	byProfile := map[Profile]int{}
	cosmoStudents, cosmoTotal := 0, 0
	for _, id := range p.Native() {
		u := p.User(id)
		byProfile[u.Profile]++
		if u.Cluster == census.Cosmopolitans {
			cosmoTotal++
			if u.Profile == Student {
				cosmoStudents++
			}
		}
	}
	for pr := Profile(0); int(pr) < NumProfiles; pr++ {
		if byProfile[pr] == 0 {
			t.Errorf("no users with profile %v", pr)
		}
	}
	// Cosmopolitans are student-heavy (Table 1 pen portrait).
	if frac := float64(cosmoStudents) / float64(cosmoTotal); frac < 0.2 {
		t.Errorf("cosmopolitan student share = %v", frac)
	}
}

func TestRelocationCalibration(t *testing.T) {
	p := fixture(t)
	inner := p.Model().InnerLondon()
	ids := nativeInCounty(p, inner.ID)
	if len(ids) < 150 {
		t.Fatalf("only %d Inner London users", len(ids))
	}
	reloc := 0
	for _, id := range ids {
		u := p.User(id)
		if u.Relocates {
			reloc++
			if u.RelocCounty == inner.ID {
				t.Error("relocation destination must differ from home county")
			}
			if p.Topology().Tower(u.RelocTower).District != u.RelocDistrict {
				t.Error("relocation tower outside relocation district")
			}
		}
	}
	frac := float64(reloc) / float64(len(ids))
	// The §3.4 target: ≈10% of Inner London residents relocate.
	if frac < 0.06 || frac > 0.18 {
		t.Errorf("Inner London relocation fraction = %v, want ≈0.10", frac)
	}
}

func TestRelocationDestinationsAreFig7Counties(t *testing.T) {
	p := fixture(t)
	inner := p.Model().InnerLondon()
	destNames, _ := pandemic.RelocationDestinations()
	allowed := map[string]bool{}
	for _, n := range destNames {
		allowed[n] = true
	}
	for _, id := range nativeInCounty(p, inner.ID) {
		u := p.User(id)
		if !u.Relocates {
			continue
		}
		name := p.Model().County(u.RelocCounty).Name
		if !allowed[name] {
			t.Errorf("Inner London relocation to unexpected county %s", name)
		}
	}
}

func TestCommuterGravity(t *testing.T) {
	p := fixture(t)
	m := p.Model()
	// EC/WC must attract a disproportionate share of work anchors.
	ec, _ := m.DistrictByCode("EC")
	wc, _ := m.DistrictByCode("WC")
	workInCore, workers := 0, 0
	outerToCore := 0
	outer, _ := m.CountyByName("Outer London")
	for _, id := range p.Native() {
		u := p.User(id)
		if !u.Worker() || len(u.Anchors) < 2 {
			continue
		}
		workers++
		wd := u.Anchors[1].District
		if wd == ec.ID || wd == wc.ID {
			workInCore++
			if u.HomeCounty == outer.ID {
				outerToCore++
			}
		}
	}
	if workers == 0 {
		t.Fatal("no workers")
	}
	coreShare := float64(workInCore) / float64(workers)
	if coreShare < 0.02 {
		t.Errorf("EC/WC work share = %v, CBDs should attract commuters", coreShare)
	}
	if outerToCore == 0 {
		t.Error("no Outer London → central London commuters")
	}
}

func TestScaleAndDistribution(t *testing.T) {
	p := fixture(t)
	m := p.Model()
	if p.Scale() <= 0 || p.Scale() > 0.01 {
		t.Errorf("scale = %v", p.Scale())
	}
	// Per-county agent counts roughly track census populations (market
	// share jitter is bounded at ±~20%).
	for ci := range m.Counties {
		c := &m.Counties[ci]
		got := len(nativeInCounty(p, c.ID))
		want := float64(c.Population) * p.Scale()
		if float64(got) < want*0.6 || float64(got) > want*1.5 {
			t.Errorf("%s agents = %d, census-scaled %f", c.Name, got, want)
		}
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	m := census.BuildUK(2)
	topo := radio.Build(m, radio.DefaultConfig(), 2)
	cfg := Config{Seed: 9, TargetUsers: 500, M2MFraction: 0.05, RoamerFraction: 0.02}
	a := Synthesize(m, topo, cfg)
	b := Synthesize(m, topo, cfg)
	if len(a.Users) != len(b.Users) {
		t.Fatal("user counts differ")
	}
	for i := range a.Users {
		if !reflect.DeepEqual(a.Users[i], b.Users[i]) {
			t.Fatalf("user %d differs across identical syntheses:\n%+v\n%+v", i, a.Users[i], b.Users[i])
		}
	}
}

func TestRelocationCandidatesAreSeasonal(t *testing.T) {
	// Candidacy is scenario-free: it is drawn from the district's
	// seasonal share alone, so districts with no seasonal population
	// produce no candidates — whatever scenario later runs on top.
	p := fixture(t)
	m := p.Model()
	candidates := 0
	for _, id := range p.Native() {
		u := p.User(id)
		if !u.Relocates {
			continue
		}
		candidates++
		if pandemic.SeasonalRelocationPropensity(m.District(u.HomeDistrict)) == 0 {
			t.Fatalf("user %d is a relocation candidate in a district with zero seasonal share", id)
		}
	}
	if candidates == 0 {
		t.Fatal("no relocation candidates synthesized")
	}
	// The null scenario keeps every candidate at home: activation, not
	// candidacy, is the scenario's decision.
	if pandemic.NoPandemic().RelocationActive(timegrid.SimDays - 1) {
		t.Error("null scenario must never activate relocation")
	}
}

func TestZeroConfigFallsBack(t *testing.T) {
	m := census.BuildUK(4)
	topo := radio.Build(m, radio.DefaultConfig(), 4)
	p := Synthesize(m, topo, Config{})
	if len(p.Native()) == 0 {
		t.Fatal("zero config should fall back to defaults")
	}
}
