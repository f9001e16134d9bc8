package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/census"
	"repro/internal/pandemic"
	"repro/internal/timegrid"
)

// -update regenerates the golden spec files under testdata/.
var update = flag.Bool("update", false, "rewrite golden spec files")

// sameFactors asserts two scenarios produce bit-identical daily factors
// (and relocation windows) across the whole study window.
// indentJSON renders a spec as stable, human-editable JSON: the golden
// files' and the -scenario file format.
func indentJSON(sp Spec) ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func sameFactors(t *testing.T, got, want *pandemic.Scenario) {
	t.Helper()
	relaxed := &census.County{Name: "Inner London"}
	plain := &census.County{Name: "Greater Manchester", Kind: census.KindMetroCore}
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		type pair struct {
			name string
			g, w float64
		}
		for _, p := range []pair{
			{"activity", got.Activity(d), want.Activity(d)},
			{"regional activity", got.RegionalActivity(d, relaxed), want.RegionalActivity(d, relaxed)},
			{"voice", got.VoiceFactor(d), want.VoiceFactor(d)},
			{"data", got.DataFactor(d), want.DataFactor(d)},
			{"home-cellular", got.HomeCellularFactor(d), want.HomeCellularFactor(d)},
			{"throttle", got.ThrottleFactor(d), want.ThrottleFactor(d)},
			{"cases", got.CumulativeCases(d), want.CumulativeCases(d)},
			{"weekend-away", got.WeekendAwayProb(d, plain), want.WeekendAwayProb(d, plain)},
			{"exodus bias", got.ExodusDestinationBias(d, "East Sussex"), want.ExodusDestinationBias(d, "East Sussex")},
		} {
			if p.g != p.w {
				t.Fatalf("day %d: %s %v != %v", d, p.name, p.g, p.w)
			}
		}
	}
	for d := timegrid.SimDay(0); d < timegrid.SimDays; d++ {
		if got.RelocationActive(d) != want.RelocationActive(d) {
			t.Fatalf("day %d: relocation window differs", d)
		}
	}
	if got.Snapshot().Relocation != want.Snapshot().Relocation {
		t.Fatal("relocation toggle differs")
	}
}

func TestDefaultCovidJSONRoundTripBitIdentical(t *testing.T) {
	sp, ok := Get(DefaultCovid)
	if !ok {
		t.Fatal("default-covid missing from registry")
	}
	data, err := indentJSON(sp)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := parsed.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, scen, pandemic.Default())
}

func TestEveryRegistryEntryRoundTrips(t *testing.T) {
	for _, sp := range List() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			scen, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			// Spec → Scenario → Spec is lossless.
			back := FromScenario(sp.Name, sp.Description, scen)
			if !reflect.DeepEqual(back, sp) {
				t.Fatalf("snapshot round trip changed the spec:\n got %+v\nwant %+v", back, sp)
			}
			// And JSON → Spec → Scenario matches the direct compile.
			data, err := indentJSON(sp)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			reScen, err := parsed.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, reScen, scen)
		})
	}
}

func TestRegistryGolden(t *testing.T) {
	for _, sp := range List() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			path := filepath.Join("testdata", sp.Name+".json")
			data, err := indentJSON(sp)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/scenario -update` to regenerate)", err)
			}
			if string(data) != string(want) {
				t.Errorf("registry spec %s drifted from its golden file; run `go test ./internal/scenario -update` if intentional", sp.Name)
			}
		})
	}
}

func TestGoldenFilesCompile(t *testing.T) {
	// Every golden file is also a valid -scenario file: loading it by
	// path reproduces the registry entry's factors.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			fromFile, err := Load(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			fromRegistry, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, fromFile, fromRegistry)
		})
	}
}

func TestNoPandemicSpecIsNull(t *testing.T) {
	scen, err := Load(NoPandemic)
	if err != nil {
		t.Fatal(err)
	}
	if !scen.Snapshot().Null {
		t.Fatal("no-pandemic spec must compile to the null scenario")
	}
	if scen.RelocationActive(timegrid.SimDays - 1) {
		t.Error("null scenario relocates")
	}
}

func TestRegistryCompleteness(t *testing.T) {
	want := []string{DefaultCovid, NoPandemic, EarlyLockdown, LateLockdown, SecondWave, DeepOffload, VoiceSurge}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry names = %v, want %v", got, want)
	}
	for _, name := range want {
		sp, ok := Get(name)
		if !ok {
			t.Fatalf("missing built-in %s", name)
		}
		if sp.Description == "" {
			t.Errorf("%s has no description", name)
		}
		if _, err := sp.Scenario(); err != nil {
			t.Errorf("%s does not compile: %v", name, err)
		}
	}
}

func TestShiftedResamplesAtWindowEdges(t *testing.T) {
	base, _ := Get(DefaultCovid)
	for _, delta := range []float64{-14, 14} {
		shifted := Shifted(base, delta)
		for _, c := range []struct {
			name       string
			orig, next Curve
		}{
			{"activity", base.Activity, shifted.Activity},
			{"voice", base.Voice, shifted.Voice},
		} {
			// Wherever the translated day still falls inside the study
			// window, the shift must be a pure translation (up to float
			// rounding through the resampled boundary anchors).
			for d := 0.0; d <= lastStudyDay; d += 0.5 {
				if d-delta < 0 || d-delta > lastStudyDay {
					continue
				}
				got, want := c.next.Eval(d), c.orig.Eval(d-delta)
				if diff := got - want; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("delta %v: %s at day %v = %v, want %v", delta, c.name, d, got, want)
				}
			}
		}
		if cc := shifted.CaseCurve; cc == nil || cc.MidDay != base.CaseCurve.MidDay+delta {
			t.Fatalf("delta %v: case midpoint not shifted", delta)
		}
	}
}

func TestParseRejectsUnknownFieldsAndBadNull(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","activty":[]}`)); err == nil {
		t.Error("typo'd field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","null":true,"relocation":true}`)); err == nil {
		t.Error("null scenario with relocation accepted")
	}
}

func TestLoadSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.json")
	spec := Spec{
		Name:       "custom",
		Activity:   Curve{{Day: 0, Value: 1}, {Day: 10, Value: 0.5}, {Day: 76, Value: 0.6}},
		Relocation: true,
	}
	data, err := indentJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	scen, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := scen.Activity(10); got != 0.5 {
		t.Errorf("activity(10) = %v", got)
	}
	if _, err := Load("definitely-not-registered"); err == nil {
		t.Error("unknown name accepted")
	}
}
