package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

func testHeader() journalHeader {
	return journalHeader{
		V: journalVersion, Kind: "mnosweep-journal",
		Users: 600, Seed: 42, NoKPI: true, SharePrefix: true,
		Scenarios: []string{"default-covid", "no-pandemic"},
	}
}

func testHeadlines(base float64) []experiments.Headline {
	// Deliberately awkward floats: the journal round-trip must preserve
	// them bit for bit (the byte-identical resume table depends on it).
	return []experiments.Headline{
		{Name: "gyration drop", Value: base + 0.1 + 0.2},
		{Name: "entropy drop", Value: base * 1e-17},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	hdr := testHeader()
	j, done, err := openJournal(path, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	if done != nil {
		t.Fatal("fresh journal reports completed runs")
	}
	ok := experiments.SweepRun{Name: "default-covid", Headlines: testHeadlines(3)}
	failed := experiments.SweepRun{Name: "no-pandemic", Err: errors.New("injected")}
	if err := j.record(ok); err != nil {
		t.Fatal(err)
	}
	if err := j.record(failed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	gotHdr, entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !headerMatches(gotHdr, hdr) {
		t.Fatalf("header mismatch after round-trip: %+v vs %+v", gotHdr, hdr)
	}
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1 (failed runs never journaled)", len(entries))
	}
	if !reflect.DeepEqual(entries["default-covid"], ok.Headlines) {
		t.Fatalf("headlines drifted through the journal:\nwant %+v\n got %+v", ok.Headlines, entries["default-covid"])
	}
}

func TestJournalResumeAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	hdr := testHeader()
	j, _, err := openJournal(path, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	j.record(experiments.SweepRun{Name: "default-covid", Headlines: testHeadlines(1)})
	j.Close()

	j2, done, err := openJournal(path, hdr, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done["default-covid"] == nil {
		t.Fatalf("resume found %d completed runs, want default-covid", len(done))
	}
	j2.record(experiments.SweepRun{Name: "no-pandemic", Headlines: testHeadlines(2)})
	j2.Close()

	_, entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("after resumed append: %d entries, want 2", len(entries))
	}
}

func TestJournalRefusesForeignHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, err := openJournal(path, testHeader(), false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	for _, mutate := range []func(*journalHeader){
		func(h *journalHeader) { h.Users = 601 },
		func(h *journalHeader) { h.Seed = 43 },
		func(h *journalHeader) { h.NoKPI = false },
		func(h *journalHeader) { h.SharePrefix = false },                                  // the deleted unshared mode
		func(h *journalHeader) { h.Scenarios = []string{"no-pandemic", "default-covid"} }, // order matters
		func(h *journalHeader) { h.Scenarios = h.Scenarios[:1] },
	} {
		hdr := testHeader()
		mutate(&hdr)
		if _, _, err := openJournal(path, hdr, true); err == nil {
			t.Errorf("resume accepted a journal from a different sweep: %+v", hdr)
		}
	}
}

func TestJournalResumeMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, done, err := openJournal(path, testHeader(), true)
	if err != nil {
		t.Fatalf("resume with no journal: %v", err)
	}
	if done != nil {
		t.Fatal("missing journal reports completed runs")
	}
	j.Close()
	if _, _, err := readJournal(path); err != nil {
		t.Fatalf("fresh journal written by resume is unreadable: %v", err)
	}
}

func TestJournalDropsTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	hdr := testHeader()
	j, _, err := openJournal(path, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	j.record(experiments.SweepRun{Name: "default-covid", Headlines: testHeadlines(1)})
	j.Close()
	// Simulate a writer killed mid-line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run":"no-pandemic","headl`)
	f.Close()

	_, entries, err := readJournal(path)
	if err != nil {
		t.Fatalf("torn tail made the journal unreadable: %v", err)
	}
	if len(entries) != 1 || entries["no-pandemic"] != nil {
		t.Fatalf("torn entry surfaced: %+v", entries)
	}
	// And resume still works — the torn run is simply re-run.
	j2, done, err := openJournal(path, hdr, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(done) != 1 {
		t.Fatalf("resume after torn tail: %d done, want 1", len(done))
	}
}

func TestJournalRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	os.WriteFile(path, []byte(`{"v":99,"kind":"mnosweep-journal"}`+"\n"), 0o644)
	if _, _, err := readJournal(path); err == nil {
		t.Fatal("future journal version accepted")
	}
	os.WriteFile(path, []byte("not json\n"), 0o644)
	if _, _, err := readJournal(path); err == nil {
		t.Fatal("garbage header accepted")
	}
}
