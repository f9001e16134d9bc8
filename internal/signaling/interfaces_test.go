package signaling

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

func TestInterfaceMapping(t *testing.T) {
	cases := []struct {
		typ  EventType
		rat  radio.RAT
		want Interface
	}{
		{Attach, radio.RAT4G, IfS1MME},
		{Handover, radio.RAT4G, IfS1MME},
		{VoiceCallStart, radio.RAT4G, IfS1U},
		{Attach, radio.RAT3G, IfIuPS},
		{VoiceCallEnd, radio.RAT3G, IfIuCS},
		{ServiceRequest, radio.RAT2G, IfGb},
		{VoiceCallStart, radio.RAT2G, IfA},
	}
	for _, c := range cases {
		if got := InterfaceOf(c.typ, c.rat); got != c.want {
			t.Errorf("InterfaceOf(%v, %v) = %v, want %v", c.typ, c.rat, got, c.want)
		}
	}
	e := Event{Type: VoiceCallStart, RAT: radio.RAT3G}
	if e.Interface() != IfIuCS {
		t.Error("Event.Interface wrong")
	}
}

func TestInterfaceStrings(t *testing.T) {
	for i := Interface(0); int(i) < NumInterfaces; i++ {
		if i.String() == "" {
			t.Errorf("interface %d unnamed", i)
		}
	}
	if IfS1MME.String() != "S1-MME" || IfA.String() != "A" {
		t.Error("interface names wrong")
	}
}

func TestVoiceDaySurge(t *testing.T) {
	_, sim, gen := fixture(t)
	day := timegrid.SimDay(40)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	count := func(factor float64) (starts, ends int) {
		for i := range traces[:300] {
			gen.VoiceDay(&traces[i], day, factor, func(e Event) {
				switch e.Type {
				case VoiceCallStart:
					starts++
				case VoiceCallEnd:
					ends++
				}
			})
		}
		return
	}
	s1, e1 := count(1.0)
	if s1 != e1 {
		t.Errorf("unbalanced calls: %d starts, %d ends", s1, e1)
	}
	if s1 == 0 {
		t.Fatal("no baseline calls")
	}
	s2, _ := count(2.5)
	if float64(s2) < 1.8*float64(s1) {
		t.Errorf("voice factor 2.5 produced %d calls vs baseline %d", s2, s1)
	}
}

func TestVoiceEventsOnCorrectInterfaces(t *testing.T) {
	_, sim, gen := fixture(t)
	day := timegrid.SimDay(40)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	var bd InterfaceBreakdown
	for i := range traces[:200] {
		gen.VoiceDay(&traces[i], day, 1.5, bd.Consume)
	}
	if bd.Total() == 0 {
		t.Fatal("no voice events")
	}
	// Voice only appears on S1-U (VoLTE), Iu-CS and A.
	if bd.Counts[IfS1MME] != 0 || bd.Counts[IfIuPS] != 0 || bd.Counts[IfGb] != 0 {
		t.Errorf("voice events on packet control interfaces: %+v", bd.Counts)
	}
	// VoLTE dominates (~75% of time on 4G).
	if bd.Share(IfS1U) < 0.5 {
		t.Errorf("VoLTE share = %v", bd.Share(IfS1U))
	}
}

func TestInterfaceBreakdownOverFullDay(t *testing.T) {
	_, sim, gen := fixture(t)
	day := timegrid.SimDay(30)
	var bd InterfaceBreakdown
	gen.Day(day, sim.DayInto(mobsim.NewDayBuffer(), day), bd.Consume)
	if bd.Total() == 0 {
		t.Fatal("no events")
	}
	// Control-plane events concentrate on S1-MME (4G camping share).
	if bd.Share(IfS1MME) < 0.5 {
		t.Errorf("S1-MME share = %v, want the 4G majority", bd.Share(IfS1MME))
	}
	// Legacy interfaces still see some traffic.
	if bd.Counts[IfIuPS] == 0 {
		t.Error("no Iu-PS events at all")
	}
	var empty InterfaceBreakdown
	if empty.Share(IfS1MME) != 0 {
		t.Error("empty breakdown share should be 0")
	}
}
