// Package census builds the synthetic United Kingdom the reproduction
// runs on: the administrative hierarchy (postcode district → county/UTLA),
// census populations, and the eight 2011 OAC geodemographic clusters of
// Table 1 of the paper.
//
// The real study uses the ONS National Statistics Postcode Lookup (NSPL)
// and the 2011 Area Classification for Output Areas; both are replaced
// here by a deterministic synthetic model with the same hierarchy, the
// same cluster vocabulary, and populations calibrated so the regional
// user counts quoted in §3.2 (Inner London ≈ 700k users at ~25% market
// share, Outer London ≈ 1.1M, Greater Manchester ≈ 700k, West Midlands ≈
// 600k, West Yorkshire ≈ 500k) hold at full scale.
package census

// Cluster is one of the eight 2011 OAC geodemographic supergroups
// (Table 1 of the paper).
type Cluster int

// The eight OAC supergroups, in the order of Table 1.
const (
	RuralResidents Cluster = iota
	Cosmopolitans
	EthnicityCentral
	MulticulturalMetropolitans
	Urbanites
	Suburbanites
	ConstrainedCityDwellers
	HardPressedLiving
	NumClusters = int(HardPressedLiving) + 1
)

// clusterNames follows Table 1 verbatim.
var clusterNames = [NumClusters]string{
	"Rural Residents",
	"Cosmopolitans",
	"Ethnicity Central",
	"Multicultural Metropolitans",
	"Urbanites",
	"Suburbanites",
	"Constrained City Dwellers",
	"Hard-pressed Living",
}

// clusterDefinitions carries the Table 1 "Definition" column.
var clusterDefinitions = [NumClusters]string{
	"Rural areas, low density, older and educated population",
	"Densely populated urban areas, high ethnic integration, young adults and students",
	"Denser central areas of London, non-white ethnic groups, young adults",
	"Urban areas in transition between centres and suburbia, high ethnic mix",
	"Urban areas mainly in southern England, average ethnic mix, low unemployment",
	"Population above retirement age and parents with school age children, low unemployment",
	"Densely populated areas, single/divorced population, higher level of unemployment",
	"Urban surroundings (northern England/southern Wales), higher rates of unemployment",
}

// Name returns the OAC supergroup name (Table 1).
func (c Cluster) Name() string {
	if c < 0 || int(c) >= NumClusters {
		return "Unknown"
	}
	return clusterNames[c]
}

// Definition returns the Table 1 description of the supergroup.
func (c Cluster) Definition() string {
	if c < 0 || int(c) >= NumClusters {
		return ""
	}
	return clusterDefinitions[c]
}

// String implements fmt.Stringer.
func (c Cluster) String() string { return c.Name() }

// Clusters returns all supergroups in Table 1 order.
func Clusters() []Cluster {
	cs := make([]Cluster, NumClusters)
	for i := range cs {
		cs[i] = Cluster(i)
	}
	return cs
}
