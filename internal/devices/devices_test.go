package devices

import (
	"testing"

	"repro/internal/rng"
)

func TestCatalogConstruction(t *testing.T) {
	c := NewCatalog()
	if len(c.entries) == 0 {
		t.Fatal("empty catalog")
	}
	// Every entry is indexed consistently by class and TAC.
	total := 0
	for cl := Class(0); int(cl) < NumClasses; cl++ {
		tacs := c.byClass[cl]
		total += len(tacs)
		for _, tac := range tacs {
			e, ok := c.entries[tac]
			if !ok {
				t.Fatalf("TAC %d not found", tac)
			}
			if e.Class != cl {
				t.Errorf("TAC %d class %v, indexed under %v", tac, e.Class, cl)
			}
			if e.Manufacturer == "" || e.Model == "" {
				t.Errorf("TAC %d missing metadata", tac)
			}
		}
	}
	if total != len(c.entries) {
		t.Errorf("class index covers %d, catalog has %d", total, len(c.entries))
	}
}

func TestTACsDisjoint(t *testing.T) {
	c := NewCatalog()
	seen := map[TAC]bool{}
	for cl := Class(0); int(cl) < NumClasses; cl++ {
		for _, tac := range c.byClass[cl] {
			if seen[tac] {
				t.Fatalf("TAC %d allocated twice", tac)
			}
			seen[tac] = true
		}
	}
}

func TestClassSemantics(t *testing.T) {
	for cl := Class(0); int(cl) < NumClasses; cl++ {
		if cl.String() == "" {
			t.Errorf("class %d has empty name", cl)
		}
	}
}

func TestAssignDeviceDistribution(t *testing.T) {
	c := NewCatalog()
	src := rng.New(1)
	smart := 0
	const n = 5000
	vendors := map[string]int{}
	for i := 0; i < n; i++ {
		e := c.AssignDevice(src)
		vendors[e.Manufacturer]++
		if e.Class == ClassSmartphone {
			smart++
		}
	}
	// ~90% of the popularity mass is smartphones.
	if frac := float64(smart) / n; frac < 0.80 || frac > 0.98 {
		t.Errorf("smartphone share = %v", frac)
	}
	if len(vendors) < 5 {
		t.Errorf("only %d vendors drawn", len(vendors))
	}
}

func TestAssignDeviceDeterminism(t *testing.T) {
	c := NewCatalog()
	a, b := rng.New(9), rng.New(9)
	for i := 0; i < 100; i++ {
		if c.AssignDevice(a).TAC != c.AssignDevice(b).TAC {
			t.Fatal("AssignDevice not deterministic")
		}
	}
}

func TestAssignM2MDevice(t *testing.T) {
	c := NewCatalog()
	src := rng.New(2)
	for i := 0; i < 200; i++ {
		e := c.AssignM2MDevice(src)
		if e.Class != ClassM2M {
			t.Fatalf("AssignM2MDevice returned %v", e.Class)
		}
	}
}

func TestPLMN(t *testing.T) {
	src := rng.New(3)
	for i := 0; i < 100; i++ {
		p := RoamerPLMN(src)
		if p == HomePLMN {
			t.Fatal("roamer PLMN classified native")
		}
		if p.String() == "" {
			t.Error("PLMN string empty")
		}
	}
	if HomePLMN.String() != "234-10" {
		t.Errorf("home PLMN = %s", HomePLMN.String())
	}
}

// The map-scan draws the precomputed vendor tables replaced, kept as
// the oracle: a vendor picked from weights rebuilt per call, then a
// uniform model among the class's TACs of that vendor. The M2M draw
// still reads the map and is pinned alongside them.

func oracleAssignDevice(c *Catalog, src *rng.Source) Entry {
	weights := make([]float64, len(vendorSpecs))
	for i, v := range vendorSpecs {
		weights[i] = v.popularity
	}
	v := vendorSpecs[src.Pick(weights)]
	var own []TAC
	for _, t := range c.byClass[v.class] {
		if e := c.entries[t]; e.Manufacturer == v.manufacturer {
			own = append(own, t)
		}
	}
	return c.entries[own[src.Intn(len(own))]]
}

func oracleAssignSmartphone(c *Catalog, src *rng.Source) Entry {
	var weights []float64
	var vendors []vendorSpec
	for _, v := range vendorSpecs {
		if v.class == ClassSmartphone {
			vendors = append(vendors, v)
			weights = append(weights, v.popularity)
		}
	}
	v := vendors[src.Pick(weights)]
	var own []TAC
	for _, t := range c.byClass[ClassSmartphone] {
		if c.entries[t].Manufacturer == v.manufacturer {
			own = append(own, t)
		}
	}
	return c.entries[own[src.Intn(len(own))]]
}

func oracleAssignM2MDevice(c *Catalog, src *rng.Source) Entry {
	tacs := c.byClass[ClassM2M]
	return c.entries[tacs[src.Intn(len(tacs))]]
}

// TestAssignMatchesMapScan checks 10k draws of each Assign* against the
// map-scan oracle on identical streams: same entry, and the same number
// of draws consumed (the streams stay in step).
func TestAssignMatchesMapScan(t *testing.T) {
	c := NewCatalog()
	cases := []struct {
		name   string
		got    func(*rng.Source) Entry
		oracle func(*Catalog, *rng.Source) Entry
	}{
		{"AssignDevice", c.AssignDevice, oracleAssignDevice},
		{"AssignSmartphone", c.AssignSmartphone, oracleAssignSmartphone},
		{"AssignM2MDevice", c.AssignM2MDevice, oracleAssignM2MDevice},
	}
	for k, tc := range cases {
		a, b := rng.New(uint64(k+11)), rng.New(uint64(k+11))
		for i := 0; i < 10_000; i++ {
			if got, want := tc.got(a), tc.oracle(c, b); got != want {
				t.Fatalf("%s draw %d: %+v, oracle %+v", tc.name, i, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("%s draw %d: streams out of step", tc.name, i)
			}
		}
	}
}

// TestAssignAllocatesNothing pins the Assign* draws at zero allocations.
func TestAssignAllocatesNothing(t *testing.T) {
	c := NewCatalog()
	src := rng.New(5)
	var sink Entry
	for name, f := range map[string]func(*rng.Source) Entry{
		"AssignDevice":     c.AssignDevice,
		"AssignSmartphone": c.AssignSmartphone,
		"AssignM2MDevice":  c.AssignM2MDevice,
	} {
		if n := testing.AllocsPerRun(1000, func() { sink = f(src) }); n != 0 {
			t.Errorf("%s: %v allocs per draw, want 0", name, n)
		}
	}
	_ = sink
}
