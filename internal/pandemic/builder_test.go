package pandemic

import (
	"testing"

	"repro/internal/census"
	"repro/internal/timegrid"
)

func TestBuilderFlatByDefault(t *testing.T) {
	s, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d += 11 {
		if s.Activity(d) != 1 || s.VoiceFactor(d) != 1 || s.DataFactor(d) != 1 ||
			s.HomeCellularFactor(d) != 1 || s.ThrottleFactor(d) != 1 {
			t.Fatalf("unset curve not flat at day %d", d)
		}
	}
	if s.CumulativeCases(40) != 0 {
		t.Error("unset case curve should be zero")
	}
	if s.relocationOn() {
		t.Error("builder scenario without relocation should not relocate")
	}
}

func TestBuilderCustomCurves(t *testing.T) {
	s, err := NewBuilder().
		Activity(0, 1.0).
		Activity(14, 0.5).
		Activity(76, 0.7).
		Voice(14, 2.0).
		AnchorAt(CurveData, 7, 1.1).
		HomeCellular(20, 0.8).
		AnchorAt(CurveThrottle, 20, 0.9).
		CaseCurve(100_000, 0.2, 40).
		WithRelocation().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Activity(14); got != 0.5 {
		t.Errorf("activity(14) = %v", got)
	}
	// Interpolated halfway between anchors.
	if got := s.Activity(7); got < 0.7 || got > 0.8 {
		t.Errorf("activity(7) = %v, want ≈0.75", got)
	}
	if got := s.VoiceFactor(30); got != 2.0 {
		t.Errorf("voice clamps at the last anchor: %v", got)
	}
	if s.CumulativeCases(40) < 40_000 || s.CumulativeCases(40) > 60_000 {
		t.Errorf("cases at midpoint = %v", s.CumulativeCases(40))
	}
	if !s.relocationOn() {
		t.Error("WithRelocation should enable relocation")
	}
}

func TestBuilderAnchorsSorted(t *testing.T) {
	s, err := NewBuilder().
		Activity(50, 0.8).
		Activity(10, 0.9).
		Activity(30, 0.6).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Interpolation must see anchors in day order: day 20 sits between
	// (10, 0.9) and (30, 0.6).
	if got := s.Activity(20); got < 0.7 || got > 0.8 {
		t.Errorf("activity(20) = %v, want ≈0.75", got)
	}
	// Day 40 between (30, 0.6) and (50, 0.8).
	if got := s.Activity(40); got < 0.65 || got > 0.75 {
		t.Errorf("activity(40) = %v, want ≈0.7", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder().Activity(-1, 1).Build(); err == nil {
		t.Error("negative day accepted")
	}
	if _, err := NewBuilder().Activity(timegrid.StudyDays, 1).Build(); err == nil {
		t.Error("out-of-window day accepted")
	}
	if _, err := NewBuilder().Voice(5, -0.5).Build(); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := NewBuilder().RelaxBonus("Inner London", 0.9).Build(); err == nil {
		t.Error("excessive relax bonus accepted")
	}
	if _, err := NewBuilder().CaseCurve(-1, 0.1, 40).Build(); err == nil {
		t.Error("negative plateau accepted")
	}
	// The first error wins and later calls are no-ops.
	_, err := NewBuilder().Activity(-1, 1).Voice(5, 2).Build()
	if err == nil {
		t.Error("latched error lost")
	}
}

func TestBuilderRelaxBonus(t *testing.T) {
	s, err := NewBuilder().
		Activity(0, 1).
		Activity(40, 0.5).
		RelaxBonus("West Yorkshire", 0.2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := census.BuildUK(1)
	wy, _ := m.CountyByName("West Yorkshire")
	gm, _ := m.CountyByName("Greater Manchester")
	late := timegrid.StudyDay((18-timegrid.FirstWeek)*7 + 1)
	if s.RegionalActivity(late, wy) <= s.RegionalActivity(late, gm) {
		t.Error("relax bonus not applied")
	}
}
