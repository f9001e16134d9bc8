package stats

// Series is a labelled daily time series over the study window; it is the
// common currency between the KPI/mobility pipelines and the figure
// harness. Values are typically delta-variation percentages.
type Series struct {
	Label  string
	Values []float64
}

// NewSeries returns a Series with n zero values.
func NewSeries(label string, n int) Series {
	return Series{Label: label, Values: make([]float64, n)}
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.Values) }

// Min returns the smallest value and its index (0, -1 when empty).
func (s Series) Min() (float64, int) {
	i := ArgMin(s.Values)
	if i < 0 {
		return 0, -1
	}
	return s.Values[i], i
}

// Max returns the largest value and its index (0, -1 when empty).
func (s Series) Max() (float64, int) {
	i := ArgMax(s.Values)
	if i < 0 {
		return 0, -1
	}
	return s.Values[i], i
}

// WeeklyMedians collapses a daily series over the study window into one
// median value per week (7-day blocks), mirroring the paper's weekly plots
// ("we show the median values for the delta variation percentage for each
// metric over one week").
func (s Series) WeeklyMedians() Series {
	nWeeks := (len(s.Values) + 6) / 7
	out := NewSeries(s.Label, nWeeks)
	for w := 0; w < nWeeks; w++ {
		lo := w * 7
		hi := lo + 7
		if hi > len(s.Values) {
			hi = len(s.Values)
		}
		out.Values[w] = Median(s.Values[lo:hi])
	}
	return out
}

// WeeklyMeans collapses a daily series into per-week means; used by the
// mobility figures that plot average daily values.
func (s Series) WeeklyMeans() Series {
	nWeeks := (len(s.Values) + 6) / 7
	out := NewSeries(s.Label, nWeeks)
	for w := 0; w < nWeeks; w++ {
		lo := w * 7
		hi := lo + 7
		if hi > len(s.Values) {
			hi = len(s.Values)
		}
		out.Values[w] = Mean(s.Values[lo:hi])
	}
	return out
}

// Band is a per-point distribution summary (percentile band) of a metric
// across a population of entities (users, cells), as drawn in the paper's
// shaded figures.
type Band struct {
	Label                   string
	P10, P25, P50, P75, P90 []float64
}

// Table is a labelled rectangular result (rows × columns) used by the
// harness to print figure data: one row per entity (region, cluster,
// district, county), one column per week or day.
type Table struct {
	Title    string
	ColNames []string
	Rows     []TableRow
}

// TableRow is one labelled row of a Table.
type TableRow struct {
	Label  string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values []float64) {
	t.Rows = append(t.Rows, TableRow{Label: label, Values: values})
}

// Row returns the row with the given label, or false.
func (t *Table) Row(label string) (TableRow, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return TableRow{}, false
}

// Accumulator incrementally collects float64 observations and reduces
// them without retaining more memory than needed; handy for per-cell
// streaming aggregation.
type Accumulator struct {
	n   int
	sum float64
}

// Add records an observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
}

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}
