package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// The sweep journal is a JSON-lines file: one header line binding the
// journal to its sweep configuration, then one entry line per completed
// scenario run. Every line is written (and fsynced by close) as soon as
// its run finishes, so a sweep killed mid-flight keeps everything it
// already paid for; `-resume` replays the entries instead of the runs.
//
// Only headline statistics are journaled — enough to reprint the sweep
// table byte-identically (encoding/json round-trips float64 exactly) —
// not the per-day series, which is why -resume rejects -baseline.

// journalVersion guards the line format; bump on incompatible change.
const journalVersion = 1

// journalHeader is line one: the sweep configuration the entries are
// only valid for. Resume refuses a journal whose header disagrees with
// the current flags — silently mixing headline sets from two different
// sweeps is exactly the corruption a journal exists to prevent.
type journalHeader struct {
	V     int    `json:"v"`
	Kind  string `json:"kind"`
	Users int    `json:"users"`
	Seed  uint64 `json:"seed"`
	NoKPI bool   `json:"nokpi"`
	// SharePrefix records that the sweep ran copy-on-divergence. Every
	// sweep now does, so the writer always sets it; a journal recorded
	// by the deleted unshared mode (false) is refused as foreign rather
	// than stitched to runs from another simulation path.
	SharePrefix bool     `json:"share_prefix"`
	Scenarios   []string `json:"scenarios"`
}

// journalEntry is one completed scenario run. ForkedFrom/PrefixDays
// record copy-on-divergence provenance when the run was forked from
// another scenario's checkpoint (absent for standalone day-0 runs).
type journalEntry struct {
	Run        string                 `json:"run"`
	ForkedFrom string                 `json:"forked_from,omitempty"`
	PrefixDays int                    `json:"prefix_days,omitempty"`
	Headlines  []experiments.Headline `json:"headlines"`
}

// journal appends completed runs to an open file.
type journal struct {
	f *os.File
}

// openJournal creates (or, when resuming, opens for append) the journal
// at path, writing the header when the file is fresh. done maps the
// runs already journaled (nil on a fresh file).
func openJournal(path string, hdr journalHeader, resume bool) (*journal, map[string][]experiments.Headline, error) {
	var done map[string][]experiments.Headline
	if resume {
		prev, entries, err := readJournal(path)
		switch {
		case os.IsNotExist(err):
			// Nothing to resume; fall through to a fresh journal.
		case err != nil:
			return nil, nil, err
		default:
			if !headerMatches(prev, hdr) {
				return nil, nil, fmt.Errorf("journal %s was written by a different sweep (%+v); refusing to resume into %+v", path, prev, hdr)
			}
			done = entries
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			return &journal{f: f}, done, nil
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f}
	if err := j.writeLine(hdr); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, nil, nil
}

// record appends one completed run. Failed runs are never journaled —
// resume must retry them.
func (j *journal) record(run experiments.SweepRun) error {
	if run.Err != nil {
		return nil
	}
	return j.writeLine(journalEntry{Run: run.Name, ForkedFrom: run.ForkedFrom, PrefixDays: run.PrefixDays, Headlines: run.Headlines})
}

func (j *journal) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(line, '\n'))
	return err
}

func (j *journal) Close() error { return j.f.Close() }

// readJournal loads a journal's header and completed entries. A
// truncated trailing line (the process died mid-write) is ignored: the
// run it would have recorded is simply re-run.
func readJournal(path string) (journalHeader, map[string][]experiments.Headline, error) {
	f, err := os.Open(path)
	if err != nil {
		return journalHeader{}, nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return journalHeader{}, nil, err
		}
		return journalHeader{}, nil, io.ErrUnexpectedEOF
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return journalHeader{}, nil, fmt.Errorf("journal %s: bad header: %w", path, err)
	}
	if hdr.V != journalVersion || hdr.Kind != "mnosweep-journal" {
		return journalHeader{}, nil, fmt.Errorf("journal %s: unsupported header %+v", path, hdr)
	}
	done := make(map[string][]experiments.Headline)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			break // torn tail line from a killed writer: drop it
		}
		done[e.Run] = e.Headlines
	}
	if err := sc.Err(); err != nil {
		return journalHeader{}, nil, err
	}
	return hdr, done, nil
}

// headerMatches reports whether a journal belongs to the sweep about to
// run: same knobs, same scenario set in the same order.
func headerMatches(a, b journalHeader) bool {
	if a.V != b.V || a.Kind != b.Kind || a.Users != b.Users || a.Seed != b.Seed || a.NoKPI != b.NoKPI || a.SharePrefix != b.SharePrefix {
		return false
	}
	if len(a.Scenarios) != len(b.Scenarios) {
		return false
	}
	for i := range a.Scenarios {
		if a.Scenarios[i] != b.Scenarios[i] {
			return false
		}
	}
	return true
}
