package census

import (
	"strings"
	"testing"
)

func TestClusterTable1(t *testing.T) {
	if NumClusters != 8 {
		t.Fatalf("NumClusters = %d, want 8 (Table 1)", NumClusters)
	}
	seenNames := map[string]bool{}
	for _, c := range Clusters() {
		if c.Name() == "" || c.Definition() == "" {
			t.Errorf("cluster %d missing name/definition", c)
		}
		if seenNames[c.Name()] {
			t.Errorf("duplicate cluster name %q", c.Name())
		}
		seenNames[c.Name()] = true
		if c.String() != c.Name() {
			t.Errorf("String != Name for %v", c)
		}
	}
	// Spot-check Table 1 entries.
	if RuralResidents.Name() != "Rural Residents" {
		t.Error("cluster 0 should be Rural Residents")
	}
	if !strings.Contains(EthnicityCentral.Definition(), "London") {
		t.Error("Ethnicity Central definition should mention London")
	}
	if Cluster(99).Name() != "Unknown" || Cluster(99).Definition() != "" {
		t.Error("out-of-range cluster accessors should degrade")
	}
}

func TestBuildUKStructure(t *testing.T) {
	m := BuildUK(1)
	if len(m.Counties) != len(ukCounties) {
		t.Fatalf("counties = %d, want %d", len(m.Counties), len(ukCounties))
	}
	if len(m.Districts) == 0 {
		t.Fatal("no districts")
	}
	// Every district belongs to its county and is indexed.
	for i := range m.Districts {
		d := &m.Districts[i]
		if d.ID != DistrictID(i) {
			t.Fatalf("district %d has ID %d", i, d.ID)
		}
		c := m.County(d.County)
		found := false
		for _, did := range c.Districts {
			if did == d.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("district %s not listed in county %s", d.Code, c.Name)
		}
		if d.Population <= 0 {
			t.Errorf("district %s has population %d", d.Code, d.Population)
		}
		if d.Cluster < 0 || int(d.Cluster) >= NumClusters {
			t.Errorf("district %s has invalid cluster", d.Code)
		}
		if c.Area.Center.Dist(d.Area.Center) > c.Area.Radius && c.Kind != KindMetroSuburb {
			t.Errorf("district %s centre outside county disc", d.Code)
		}
	}
	// County populations are (approximately) conserved by the district
	// split: within 2% per county.
	for ci := range m.Counties {
		c := &m.Counties[ci]
		sum := 0
		for _, did := range c.Districts {
			sum += m.District(did).Population
		}
		diff := float64(sum-c.Population) / float64(c.Population)
		if diff > 0.02 || diff < -0.02 {
			t.Errorf("%s district populations sum to %d, county %d", c.Name, sum, c.Population)
		}
	}
	if m.TotalPopulation() < 30_000_000 {
		t.Errorf("total population = %d, suspiciously low", m.TotalPopulation())
	}
}

func TestBuildUKDeterminism(t *testing.T) {
	a, b := BuildUK(7), BuildUK(7)
	if len(a.Districts) != len(b.Districts) {
		t.Fatal("district counts differ across identical builds")
	}
	for i := range a.Districts {
		if a.Districts[i].Area != b.Districts[i].Area ||
			a.Districts[i].Population != b.Districts[i].Population ||
			a.Districts[i].Cluster != b.Districts[i].Cluster {
			t.Fatalf("district %d differs across identical builds", i)
		}
	}
	// Different seed jitters placement but keeps structure.
	c := BuildUK(8)
	if len(c.Districts) != len(a.Districts) {
		t.Error("seed should not change administrative structure")
	}
}

func TestInnerLondonDistricts(t *testing.T) {
	m := BuildUK(1)
	inner := m.InnerLondon()
	if inner.Kind != KindMetroCore {
		t.Fatal("Inner London kind wrong")
	}
	if len(inner.Districts) != 8 {
		t.Fatalf("Inner London has %d districts, want 8", len(inner.Districts))
	}
	codes := map[string]bool{}
	for _, did := range inner.Districts {
		codes[m.District(did).Code] = true
	}
	for _, want := range []string{"EC", "WC", "N", "E", "SE", "SW", "W", "NW"} {
		if !codes[want] {
			t.Errorf("missing Inner London district %s", want)
		}
	}
	ec := districtByCode(t, m, "EC")
	sw := districtByCode(t, m, "SW")
	// §5.1: ≈30k residents in EC vs ≈400k in SW.
	if ec.Population >= sw.Population/5 {
		t.Errorf("EC population %d should be far below SW %d", ec.Population, sw.Population)
	}
	if ec.DayVisitorWeight <= 3*sw.DayVisitorWeight {
		t.Errorf("EC visitor weight %v should dwarf SW %v", ec.DayVisitorWeight, sw.DayVisitorWeight)
	}
	if ec.SeasonalShare <= sw.SeasonalShare {
		t.Error("EC seasonal share should exceed SW")
	}
}

func TestFocusRegions(t *testing.T) {
	m := BuildUK(1)
	regions := m.FocusRegions()
	if len(regions) != 5 {
		t.Fatalf("focus regions = %d", len(regions))
	}
	names := FocusRegionNames()
	for i, c := range regions {
		if c.Name != names[i] {
			t.Errorf("region %d = %s, want %s", i, c.Name, names[i])
		}
	}
}

func TestLondonClusters(t *testing.T) {
	m := BuildUK(1)
	cls := m.LondonClusters()
	if len(cls) != 3 {
		t.Fatalf("London clusters = %d, want 3 (§5.2)", len(cls))
	}
	want := map[Cluster]bool{Cosmopolitans: true, EthnicityCentral: true, MulticulturalMetropolitans: true}
	for _, c := range cls {
		if !want[c] {
			t.Errorf("unexpected London cluster %v", c)
		}
	}
}

func TestClusterPopulationCoverage(t *testing.T) {
	m := BuildUK(1)
	byCluster := make(map[Cluster]int, NumClusters)
	var distSum int
	for i := range m.Districts {
		byCluster[m.Districts[i].Cluster] += m.Districts[i].Population
		distSum += m.Districts[i].Population
	}
	for _, c := range Clusters() {
		if byCluster[c] == 0 {
			t.Errorf("cluster %v has no districts", c)
		}
	}
	// Rural Residents should be a significant but minority share.
	rural := float64(byCluster[RuralResidents]) / float64(distSum)
	if rural < 0.03 || rural > 0.4 {
		t.Errorf("rural share = %v", rural)
	}
}

func TestCountyLookup(t *testing.T) {
	m := BuildUK(1)
	if _, ok := m.CountyByName("Atlantis"); ok {
		t.Error("nonexistent county found")
	}
	for _, name := range []string{"Hampshire", "Kent", "East Sussex", "Essex", "Surrey",
		"Hertfordshire", "Berkshire", "Oxfordshire", "Cambridgeshire", "Outer London"} {
		if _, ok := m.CountyByName(name); !ok {
			t.Errorf("Fig. 7 destination county %q missing", name)
		}
	}
}

func TestMetroCBDShape(t *testing.T) {
	m := BuildUK(1)
	gm, _ := m.CountyByName("Greater Manchester")
	cbd := m.District(gm.Districts[0])
	if cbd.Cluster != Cosmopolitans {
		t.Errorf("metro CBD cluster = %v, want Cosmopolitans", cbd.Cluster)
	}
	rest := m.District(gm.Districts[1])
	if cbd.DayVisitorWeight <= 2*rest.DayVisitorWeight {
		t.Error("metro CBD should attract far more visitors than suburbs")
	}
	if cbd.Population >= rest.Population*2 {
		t.Error("metro CBD resident population should be modest")
	}
}

// districtByCode returns m's district with the given postcode-district
// code.
func districtByCode(t *testing.T, m *Model, code string) *District {
	t.Helper()
	for i := range m.Districts {
		if m.Districts[i].Code == code {
			return &m.Districts[i]
		}
	}
	t.Fatalf("no district %q", code)
	return nil
}
