package pandemic

import (
	"testing"

	"repro/internal/census"
	"repro/internal/timegrid"
)

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	want := Default()
	got, err := FromSnapshot(want.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	county := &census.County{Name: "Inner London"}
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		if got.Activity(d) != want.Activity(d) ||
			got.RegionalActivity(d, county) != want.RegionalActivity(d, county) ||
			got.VoiceFactor(d) != want.VoiceFactor(d) ||
			got.DataFactor(d) != want.DataFactor(d) ||
			got.HomeCellularFactor(d) != want.HomeCellularFactor(d) ||
			got.ThrottleFactor(d) != want.ThrottleFactor(d) ||
			got.CumulativeCases(d) != want.CumulativeCases(d) {
			t.Fatalf("factor differs at day %d", d)
		}
	}
	for d := timegrid.SimDay(0); d < timegrid.SimDays; d++ {
		if got.RelocationActive(d) != want.RelocationActive(d) {
			t.Fatalf("relocation window differs at day %d", d)
		}
	}
	if got.relocationScale != want.relocationScale {
		t.Fatal("relocation toggle differs")
	}
}

func TestSnapshotNull(t *testing.T) {
	sn := NoPandemic().Snapshot()
	if !sn.Null {
		t.Fatal("null scenario snapshot not marked null")
	}
	s, err := FromSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	if !s.null {
		t.Fatal("null snapshot did not rebuild the null scenario")
	}
}

func TestSnapshotRelocationToggle(t *testing.T) {
	noReloc, err := NewBuilder().Activity(0, 1).Activity(30, 0.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	if noReloc.Snapshot().Relocation {
		t.Error("builder scenario without relocation snapshots as relocating")
	}
	if noReloc.RelocationActive(timegrid.LockdownStart.ToSimDay()) {
		t.Error("relocation-off scenario must never activate relocation")
	}
	reloc, err := FromSnapshot(Snapshot{
		Activity:   []AnchorPoint{{Day: 0, Value: 1}, {Day: 30, Value: 0.5}},
		Relocation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reloc.RelocationActive(timegrid.LockdownStart.ToSimDay()) {
		t.Error("relocation-on scenario should activate relocation by the lockdown")
	}
}

func TestBuilderAnchorAt(t *testing.T) {
	s, err := NewBuilder().
		AnchorAt(CurveActivity, 0, 1).
		AnchorAt(CurveActivity, 10.5, 0.5).
		AnchorAt(CurveVoice, 20, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Fractional anchor days interpolate exactly like whole ones.
	if got := s.Activity(10); got <= 0.5 || got >= 0.55 {
		t.Errorf("activity(10) = %v, want just above 0.5", got)
	}
	if got := s.VoiceFactor(30); got != 2 {
		t.Errorf("voice(30) = %v", got)
	}
	if _, err := NewBuilder().AnchorAt("no-such-curve", 0, 1).Build(); err == nil {
		t.Error("unknown curve name accepted")
	}
	if _, err := NewBuilder().AnchorAt(CurveActivity, float64(timegrid.StudyDays), 1).Build(); err == nil {
		t.Error("out-of-window fractional day accepted")
	}
}
