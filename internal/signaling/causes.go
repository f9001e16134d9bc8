package signaling

import (
	"fmt"

	"repro/internal/rng"
)

// FailureCause classifies why a control-plane procedure failed; real
// probes export 3GPP cause codes, which operations teams bucket roughly
// this way when they triage incidents like the §4.2 congestion event.
type FailureCause int

// Failure causes.
const (
	CauseNone         FailureCause = iota // the event succeeded
	CauseAuth                             // authentication/security failure
	CauseCongestion                       // admission control, overload
	CauseRadioLink                        // radio link failure, coverage
	CauseTimeout                          // peer not responding
	CauseSubscription                     // barred/unknown subscriber
	NumFailureCauses  = int(CauseSubscription) + 1
)

// String implements fmt.Stringer.
func (c FailureCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseAuth:
		return "auth-failure"
	case CauseCongestion:
		return "congestion"
	case CauseRadioLink:
		return "radio-link-failure"
	case CauseTimeout:
		return "timeout"
	case CauseSubscription:
		return "subscription"
	default:
		return fmt.Sprintf("FailureCause(%d)", int(c))
	}
}

// CauseModel draws failure causes for failed events. Its congestion
// weight scales with the network pressure level, so the cause mix
// shifts towards congestion during the voice surge — the control-plane
// shadow of the §4.2 incident.
type CauseModel struct {
	// Pressure is the current network pressure (1 = baseline); the
	// voice factor of the scenario is a natural input.
	Pressure float64
}

// baseCauseWeights is the triage mix of a quiet network.
var baseCauseWeights = [NumFailureCauses]float64{
	CauseAuth:         0.22,
	CauseCongestion:   0.10,
	CauseRadioLink:    0.38,
	CauseTimeout:      0.18,
	CauseSubscription: 0.12,
}

// Draw picks a cause for a failed event.
func (m CauseModel) Draw(src *rng.Source) FailureCause {
	p := m.Pressure
	if p < 1 {
		p = 1
	}
	w := make([]float64, NumFailureCauses)
	for c := 1; c < NumFailureCauses; c++ {
		w[c] = baseCauseWeights[c]
	}
	// Congestion share grows super-linearly with pressure (admission
	// control rejects kick in once queues build).
	w[CauseCongestion] *= p * p
	return FailureCause(src.Pick(w))
}

// CongestionShare returns the expected fraction of failures attributed
// to congestion at the given pressure.
func (m CauseModel) CongestionShare() float64 {
	p := m.Pressure
	if p < 1 {
		p = 1
	}
	var total float64
	cong := baseCauseWeights[CauseCongestion] * p * p
	for c := 1; c < NumFailureCauses; c++ {
		if c == int(CauseCongestion) {
			total += cong
		} else {
			total += baseCauseWeights[c]
		}
	}
	return cong / total
}

// CauseBreakdown tallies failure causes over an event stream given a
// per-day pressure curve.
type CauseBreakdown struct {
	Counts [NumFailureCauses]int64
	model  CauseModel
	src    *rng.Source
}

// NewCauseBreakdown builds a tally that draws causes at the given
// pressure with a deterministic stream.
func NewCauseBreakdown(pressure float64, seed uint64) *CauseBreakdown {
	return &CauseBreakdown{
		model: CauseModel{Pressure: pressure},
		src:   rng.New(rng.Hash64(seed ^ 0xCA53)),
	}
}

// Consume is an EmitFunc: failed events get a cause drawn and tallied.
func (b *CauseBreakdown) Consume(e Event) {
	if e.OK {
		b.Counts[CauseNone]++
		return
	}
	b.Counts[b.model.Draw(b.src)]++
}

// Failures returns the total failed events tallied.
func (b *CauseBreakdown) Failures() int64 {
	var t int64
	for c := 1; c < NumFailureCauses; c++ {
		t += b.Counts[c]
	}
	return t
}
