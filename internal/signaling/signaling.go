// Package signaling models the control-plane measurement feed of §2.2:
// the event stream the MNO's probes capture at the MME (S1 interface,
// 4G), SGSN (Iu-PS/Gb, 3G/2G) and MSC (Iu-CS/A, voice) — Attach,
// Authentication, Session establishment, bearer management, Tracking
// Area Updates, ECM-IDLE transitions, Service Requests, Handovers and
// Detach — each carrying the anonymised user ID, SIM MCC/MNC, device
// TAC, the serving sector, a timestamp and a result code.
//
// The generator is streaming (events are emitted through a callback, not
// retained) and Aggregator tallies the stream nation-wide, per event
// type. The §2.3 population filter (native smartphone subscribers only)
// is popsim.Population.Native.
package signaling

import (
	"fmt"

	"repro/internal/devices"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// EventType enumerates the §2.2 control-plane event vocabulary.
type EventType int

// Event types.
const (
	Attach EventType = iota
	Authentication
	SessionEstablish
	BearerSetup
	BearerRelease
	TrackingAreaUpdate
	IdleTransition
	ServiceRequest
	Handover
	Detach
	VoiceCallStart
	VoiceCallEnd
	NumEventTypes = int(VoiceCallEnd) + 1
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case Attach:
		return "attach"
	case Authentication:
		return "authentication"
	case SessionEstablish:
		return "session-establish"
	case BearerSetup:
		return "bearer-setup"
	case BearerRelease:
		return "bearer-release"
	case TrackingAreaUpdate:
		return "tau"
	case IdleTransition:
		return "ecm-idle"
	case ServiceRequest:
		return "service-request"
	case Handover:
		return "handover"
	case Detach:
		return "detach"
	case VoiceCallStart:
		return "voice-call-start"
	case VoiceCallEnd:
		return "voice-call-end"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one control-plane record.
type Event struct {
	User     popsim.UserID
	Day      timegrid.SimDay
	SecOfDay int32
	Type     EventType
	Tower    radio.TowerID
	Sector   uint8
	RAT      radio.RAT
	TAC      devices.TAC
	PLMN     devices.PLMN
	OK       bool // result code: success / failure
}

// EmitFunc receives generated events by value, so an event never
// escapes the generator.
type EmitFunc func(Event)

// Generator produces deterministic event streams from day traces.
type Generator struct {
	pop  *popsim.Population
	topo *radio.Topology
	seed uint64
}

// NewGenerator builds a generator over the population.
func NewGenerator(pop *popsim.Population, seed uint64) *Generator {
	return &Generator{pop: pop, topo: pop.Topology(), seed: rng.Hash64(seed ^ 0x516)}
}

// Population returns the population the generator draws from.
func (g *Generator) Population() *popsim.Population { return g.pop }

// ratFor picks the serving RAT for an event: devices camp on 4G for
// ~75% of their time (§2.4), falling back to 3G/2G where available or
// when the device lacks LTE support.
func (g *Generator) ratFor(u *popsim.User, tw *radio.Tower, src *rng.Source) radio.RAT {
	if u.Device.LTECapable && tw.HasRAT[radio.RAT4G] {
		x := src.Float64()
		switch {
		case x < 0.75:
			return radio.RAT4G
		case x < 0.95 && tw.HasRAT[radio.RAT3G]:
			return radio.RAT3G
		case tw.HasRAT[radio.RAT2G]:
			return radio.RAT2G
		default:
			return radio.RAT4G
		}
	}
	if tw.HasRAT[radio.RAT3G] && src.Bool(0.8) {
		return radio.RAT3G
	}
	if tw.HasRAT[radio.RAT2G] {
		return radio.RAT2G
	}
	return radio.RAT4G
}

// emit fills the common fields and forwards the event. Timestamps are
// clamped to the day (follow-up events scheduled past midnight are
// recorded at the last second, as a probe flushing at day rollover
// would).
func (g *Generator) emit(f EmitFunc, u *popsim.User, day timegrid.SimDay, sec int32, typ EventType, tw radio.TowerID, src *rng.Source) {
	if sec > 86_399 {
		sec = 86_399
	}
	tower := g.topo.Tower(tw)
	ev := Event{
		User:     u.ID,
		Day:      day,
		SecOfDay: sec,
		Type:     typ,
		Tower:    tw,
		Sector:   uint8(src.Intn(tower.Sectors)),
		RAT:      g.ratFor(u, tower, src),
		TAC:      u.Device.TAC,
		PLMN:     u.PLMN,
		OK:       !src.Bool(0.004), // rare failures
	}
	f(ev)
}

// UserDay generates the control-plane events for one native agent-day
// from its trace: an attach/authentication pair at the first activity,
// handovers or service requests on tower changes, periodic idle
// transitions and service requests within long dwells, TAUs on larger
// moves, and a detach for a small fraction of devices overnight.
func (g *Generator) UserDay(t *mobsim.DayTrace, day timegrid.SimDay, f EmitFunc) {
	u := g.pop.User(t.User)
	src := rng.Stream2(g.seed, uint64(t.User), uint64(day))
	if len(t.Visits) == 0 {
		return
	}

	first := t.Visits[0]
	firstTower := first.Tower()
	sec := int32(first.Bin()) * timegrid.BinHours * 3600
	g.emit(f, u, day, sec, Attach, firstTower, &src)
	g.emit(f, u, day, sec+1, Authentication, firstTower, &src)
	g.emit(f, u, day, sec+2, SessionEstablish, firstTower, &src)

	prev := firstTower
	for i, v := range t.Visits {
		tw := v.Tower()
		binStart := int32(v.Bin()) * timegrid.BinHours * 3600
		at := binStart + int32(src.Intn(timegrid.BinHours*3600))
		if i > 0 && tw != prev {
			// Tower change: active users hand over, idle ones TAU.
			if src.Bool(0.55) {
				g.emit(f, u, day, at, Handover, tw, &src)
			} else {
				g.emit(f, u, day, at, TrackingAreaUpdate, tw, &src)
				g.emit(f, u, day, at+1, ServiceRequest, tw, &src)
			}
		}
		// Activity within the dwell: service requests / idle cycles and
		// dedicated bearer churn, proportional to dwell length.
		cycles := src.Poisson(float64(v.Seconds()) / 3600 * 1.2)
		for c := 0; c < cycles; c++ {
			cat := binStart + int32(src.Intn(timegrid.BinHours*3600))
			g.emit(f, u, day, cat, ServiceRequest, tw, &src)
			g.emit(f, u, day, cat+int32(src.IntRange(30, 600)), IdleTransition, tw, &src)
			if src.Bool(0.15) {
				g.emit(f, u, day, cat+2, BearerSetup, tw, &src)
				g.emit(f, u, day, cat+int32(src.IntRange(60, 900)), BearerRelease, tw, &src)
			}
		}
		prev = tw
	}

	if src.Bool(0.06) { // phones switched off overnight
		g.emit(f, u, day, 86_000, Detach, prev, &src)
	}
}

// MachineDay generates the sparse, stationary event pattern of an M2M
// SIM: periodic TAU/service-request heartbeats at its fixed tower.
func (g *Generator) MachineDay(u *popsim.User, day timegrid.SimDay, f EmitFunc) {
	src := rng.Stream2(g.seed, uint64(u.ID)^0x3232, uint64(day))
	beats := src.IntRange(4, 12)
	for i := 0; i < beats; i++ {
		at := int32(src.Intn(86_400))
		g.emit(f, u, day, at, ServiceRequest, u.HomeTower, &src)
		g.emit(f, u, day, at+5, IdleTransition, u.HomeTower, &src)
	}
	if src.Bool(0.02) {
		g.emit(f, u, day, int32(src.Intn(86_400)), TrackingAreaUpdate, u.HomeTower, &src)
	}
}

// RoamerDay generates an inbound roamer's events. Roamer presence
// collapses after the travel restrictions: once the lockdown window
// starts, most roamers have left the country.
func (g *Generator) RoamerDay(u *popsim.User, day timegrid.SimDay, f EmitFunc) {
	src := rng.Stream2(g.seed, uint64(u.ID)^0xB0A0, uint64(day))
	present := true
	if sd, ok := day.ToStudyDay(); ok && sd >= timegrid.WorkFromHomeAdvice {
		present = src.Bool(0.15)
	}
	if !present {
		return
	}
	g.emit(f, u, day, int32(src.Intn(43_200)), Attach, u.HomeTower, &src)
	moves := src.IntRange(1, 5)
	for i := 0; i < moves; i++ {
		tw := g.topo.PickTower(u.HomeDistrict, day, &src)
		g.emit(f, u, day, int32(43_200+src.Intn(43_000)), Handover, tw, &src)
	}
}

// Day generates the full network-wide stream for one day: native
// smartphone events from the traces plus the M2M and roamer background.
func (g *Generator) Day(day timegrid.SimDay, traces []mobsim.DayTrace, f EmitFunc) {
	for i := range traces {
		g.UserDay(&traces[i], day, f)
	}
	for i := range g.pop.Users {
		u := &g.pop.Users[i]
		switch u.Kind {
		case popsim.NativeM2M:
			g.MachineDay(u, day, f)
		case popsim.InboundRoamer:
			g.RoamerDay(u, day, f)
		}
	}
}
