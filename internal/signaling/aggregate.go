package signaling

// Aggregator reduces a raw event stream to national tallies: per-type
// counts, failures and the event total. Every tally is an array slot
// or a counter, so consuming an event allocates nothing.
type Aggregator struct {
	ByType   [NumEventTypes]int64
	Failures int64
	Total    int64
}

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Consume ingests one event; it is an EmitFunc.
func (a *Aggregator) Consume(e Event) {
	a.Total++
	a.ByType[e.Type]++
	if !e.OK {
		a.Failures++
	}
}
