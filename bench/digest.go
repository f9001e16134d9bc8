package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/partial"
	"repro/internal/stats"
	"repro/internal/stream"
)

// digest is a SHA-256 over a workload's output at full precision: every
// float enters as its IEEE-754 bits, so two outputs digest equal only if
// they are bit-identical.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) int(vs ...int64) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) table(t stats.Table) {
	d.str(t.Title)
	d.int(int64(len(t.ColNames)), int64(len(t.Rows)))
	for _, c := range t.ColNames {
		d.str(c)
	}
	for _, r := range t.Rows {
		d.str(r.Label)
		d.int(int64(len(r.Values)))
		d.f64(r.Values...)
	}
}

// figures digests every figure's tables and shape checks and returns the
// number of checks and of failed checks. Checks are taken in name order:
// Fig. 5 emits its per-county checks in map iteration order.
func (d *digest) figures(figs []*experiments.Figure) (checks, failed int) {
	for _, f := range figs {
		d.str(f.ID)
		for _, t := range f.Tables {
			d.table(t)
		}
		cs := slices.Clone(f.Checks)
		slices.SortFunc(cs, func(a, b experiments.Check) int { return strings.Compare(a.Name, b.Name) })
		for _, c := range cs {
			d.str(c.Name)
			d.str(c.Got)
			if c.Pass {
				d.int(1)
			} else {
				d.int(0)
				failed++
			}
			checks++
		}
	}
	return checks, failed
}

func (d *digest) headlines(hs []experiments.Headline) {
	for _, h := range hs {
		d.str(h.Name)
		d.f64(h.Value)
	}
}

// monitorRow is one day summary of the monitor workload: what
// cmd/mnostream prints for a day, at full precision.
type monitorRow struct {
	mob              stream.MobilityDay
	kpi              stream.KPIDay
	events, failures int64
}

func (d *digest) monitorRows(rows []monitorRow) {
	for _, r := range rows {
		d.int(int64(r.mob.Day), int64(r.mob.Users), int64(r.kpi.Day), int64(r.kpi.Cells), r.events, r.failures)
		d.f64(r.mob.AvgEntropy, r.mob.AvgGyration)
		d.f64(r.kpi.Medians[:]...)
	}
}

func (d *digest) replayResult(r *partial.Result) {
	d.int(int64(r.Users), int64(r.Seed), int64(len(r.Mobility)), int64(len(r.KPI)), int64(len(r.Events)))
	d.str(r.Scenario)
	for _, m := range r.Mobility {
		d.int(int64(m.Day), int64(m.Users))
		d.f64(m.AvgEntropy, m.AvgGyration)
	}
	for _, k := range r.KPI {
		d.int(int64(k.Day), int64(k.Cells))
		d.f64(k.Medians[:]...)
	}
	for _, e := range r.Events {
		d.int(int64(e.Day), e.Events, e.Failures)
	}
}

// goldenKey names a committed digest: workload, users and seed fix the
// inputs completely.
func goldenKey(workload string, users int, seed uint64) string {
	return fmt.Sprintf("%s/%d/%d", workload, users, seed)
}

// readGolden loads the committed digests; a missing file is an empty set.
func readGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return m, nil
}

// writeGolden records one digest in the committed set.
func writeGolden(path, key, sum string) error {
	m, err := readGolden(path)
	if err != nil {
		return err
	}
	m[key] = sum
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
