package signaling

import (
	"fmt"

	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// Interface identifies the 3GPP reference point a control-plane event is
// observed on, matching the probe placement of Figure 1 in the paper:
// S1-MME at the MME for 4G, Iu-PS/Gb at the SGSN for 3G/2G packet
// events, and Iu-CS/A at the MSC for 3G/2G circuit-switched voice.
type Interface int

// Monitored interfaces.
const (
	IfS1MME       Interface = iota // 4G control plane (MME)
	IfS1U                          // 4G user plane (incl. VoLTE bearers)
	IfIuPS                         // 3G packet-switched (SGSN)
	IfGb                           // 2G packet-switched (SGSN)
	IfIuCS                         // 3G circuit-switched voice (MSC)
	IfA                            // 2G circuit-switched voice (MSC)
	NumInterfaces = int(IfA) + 1
)

// String implements fmt.Stringer with the 3GPP names.
func (i Interface) String() string {
	switch i {
	case IfS1MME:
		return "S1-MME"
	case IfS1U:
		return "S1-U"
	case IfIuPS:
		return "Iu-PS"
	case IfGb:
		return "Gb"
	case IfIuCS:
		return "Iu-CS"
	case IfA:
		return "A"
	default:
		return fmt.Sprintf("Interface(%d)", int(i))
	}
}

// InterfaceOf returns the reference point an event of the given type is
// captured on for the given RAT. Voice events ride the CS core on 2G/3G
// and the S1 user plane (VoLTE) on 4G; everything else is the RAT's
// control-plane interface.
func InterfaceOf(typ EventType, rat radio.RAT) Interface {
	voice := typ == VoiceCallStart || typ == VoiceCallEnd
	switch rat {
	case radio.RAT4G:
		if voice {
			return IfS1U
		}
		return IfS1MME
	case radio.RAT3G:
		if voice {
			return IfIuCS
		}
		return IfIuPS
	default:
		if voice {
			return IfA
		}
		return IfGb
	}
}

// Interface returns the reference point the event was observed on.
func (e *Event) Interface() Interface { return InterfaceOf(e.Type, e.RAT) }

// VoiceDay generates the conversational-voice call events of one
// agent-day: call start/end pairs whose count scales with the scenario's
// voice factor — the §4.2 surge at the control-plane level. Calls are
// placed at the tower the agent occupies at the call's hour.
func (g *Generator) VoiceDay(t *mobsim.DayTrace, day timegrid.SimDay, voiceFactor float64, f EmitFunc) {
	if len(t.Visits) == 0 {
		return
	}
	u := g.pop.User(t.User)
	src := rng.Stream2(g.seed, uint64(t.User)^0xCA11, uint64(day))
	// Baseline ≈2.2 calls/day; the surge multiplies call attempts.
	calls := src.Poisson(2.2 * voiceFactor)
	if calls == 0 {
		return
	}
	// Pick a visit weighted by dwell so calls happen where the agent
	// is; bias towards waking bins.
	weights := make([]float64, len(t.Visits))
	for i, v := range t.Visits {
		w := float64(v.Seconds())
		if v.Bin() == 0 {
			w *= 0.05 // few calls in the small hours
		}
		weights[i] = w
	}
	for c := 0; c < calls; c++ {
		v := t.Visits[src.Pick(weights)]
		start, end := v.Bin().Hours()
		sec := int32(start*3600 + src.Intn((end-start)*3600))
		dur := int32(src.IntRange(45, 900))
		g.emit(f, u, day, sec, VoiceCallStart, v.Tower(), &src)
		g.emit(f, u, day, sec+dur, VoiceCallEnd, v.Tower(), &src)
	}
}

// InterfaceBreakdown tallies an event stream per monitored interface; a
// structural check that the probe placement of Figure 1 sees the
// expected traffic mix.
type InterfaceBreakdown struct {
	Counts [NumInterfaces]int64
}

// Consume is an EmitFunc.
func (b *InterfaceBreakdown) Consume(e Event) {
	b.Counts[e.Interface()]++
}

// Total returns the number of events tallied.
func (b *InterfaceBreakdown) Total() int64 {
	var t int64
	for _, c := range b.Counts {
		t += c
	}
	return t
}

// Share returns the fraction of events on an interface.
func (b *InterfaceBreakdown) Share(i Interface) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Counts[i]) / float64(t)
}
