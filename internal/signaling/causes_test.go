package signaling

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

func TestCauseStrings(t *testing.T) {
	for c := FailureCause(0); int(c) < NumFailureCauses; c++ {
		if c.String() == "" {
			t.Errorf("cause %d unnamed", c)
		}
	}
}

func TestCauseModelShiftsWithPressure(t *testing.T) {
	quiet := CauseModel{Pressure: 1}
	surge := CauseModel{Pressure: 2.5}
	if surge.CongestionShare() <= quiet.CongestionShare()*2 {
		t.Errorf("congestion share: quiet %v, surge %v — expected a strong shift",
			quiet.CongestionShare(), surge.CongestionShare())
	}
	// Empirical draw frequencies track the analytic share.
	src := rng.New(1)
	var cong, total int
	for i := 0; i < 20000; i++ {
		if surge.Draw(src) == CauseCongestion {
			cong++
		}
		total++
	}
	got := float64(cong) / float64(total)
	want := surge.CongestionShare()
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("empirical congestion share %v vs analytic %v", got, want)
	}
	// Draw never returns CauseNone for a failure.
	for i := 0; i < 1000; i++ {
		if quiet.Draw(src) == CauseNone {
			t.Fatal("failure drew CauseNone")
		}
	}
	// Sub-baseline pressure clamps to baseline.
	low := CauseModel{Pressure: 0.2}
	if low.CongestionShare() != quiet.CongestionShare() {
		t.Error("pressure below 1 should clamp")
	}
}

func TestCauseBreakdownOverStream(t *testing.T) {
	_, sim, gen := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 23) // week-12 surge
	quiet := NewCauseBreakdown(1.0, 7)
	surge := NewCauseBreakdown(2.4, 7)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	gen.Day(day, traces, quiet.Consume)
	gen.Day(day, traces, surge.Consume)

	if quiet.Failures() == 0 || surge.Failures() == 0 {
		t.Fatal("no failures tallied")
	}
	if quiet.Counts[CauseNone] == 0 {
		t.Fatal("no successes tallied")
	}
	qShare := float64(quiet.Counts[CauseCongestion]) / float64(quiet.Failures())
	sShare := float64(surge.Counts[CauseCongestion]) / float64(surge.Failures())
	if sShare <= qShare {
		t.Errorf("congestion failure share: quiet %v, surge %v", qShare, sShare)
	}
}
