package feeds

import (
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// MetaFeedName is the provenance sidecar of a feed directory.
const MetaFeedName = "feed_meta.csv"

// Meta records the simulation stack a feed directory was generated
// from. Feeds carry tower, cell and user IDs that are only meaningful
// relative to that stack, so replay tools check this sidecar before
// interpreting them.
type Meta struct {
	Users int
	Seed  uint64
	// Scenario names the behavioural scenario the feed was generated
	// under (a registry name or spec file; empty means the calibrated
	// default, and feeds written before the column existed read back
	// empty).
	Scenario string
	// Format is the feed file format of the directory (FormatCSV or
	// FormatCol); empty for sidecars written before the column existed
	// (always CSV in practice — replay auto-detects by magic bytes
	// regardless).
	Format string
	// FormatVersion is the columnar format version (colfmt.Version)
	// when Format is FormatCol; 0 otherwise.
	FormatVersion int
	// Part and Parts identify a partition shard: this directory is
	// shard Part (0-based) of Parts. Both zero: unpartitioned.
	Part, Parts int
	// UserLo and UserHi bound (inclusive) the contiguous user ID range
	// whose traces and events this shard holds; both zero when
	// unpartitioned.
	UserLo, UserHi uint32
}

// Partitioned reports whether the sidecar describes a partition shard.
func (m Meta) Partitioned() bool { return m.Parts > 0 }

var metaHeader = []string{
	"users", "seed", "scenario",
	"format", "format_version", "part", "parts", "user_lo", "user_hi",
}

// WriteMeta persists the provenance sidecar into a feed directory.
func WriteMeta(dir string, m Meta) error {
	f, err := os.Create(filepath.Join(dir, MetaFeedName))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	rows := [][]string{metaHeader, {
		strconv.Itoa(m.Users), strconv.FormatUint(m.Seed, 10), m.Scenario,
		m.Format, strconv.Itoa(m.FormatVersion),
		strconv.Itoa(m.Part), strconv.Itoa(m.Parts),
		strconv.FormatUint(uint64(m.UserLo), 10), strconv.FormatUint(uint64(m.UserHi), 10),
	}}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadMeta loads the provenance sidecar; ok is false when the directory
// has none (feeds written before the sidecar existed replay unchecked).
// The header is matched as a prefix of the current schema, so sidecars
// from before the scenario, format or partition columns existed read
// back with those fields zero.
func ReadMeta(dir string) (m Meta, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, MetaFeedName))
	if os.IsNotExist(err) {
		return Meta{}, false, nil
	}
	if err != nil {
		return Meta{}, false, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	hdr, err := r.Read()
	if err != nil {
		return Meta{}, false, fmt.Errorf("feeds: reading meta header: %w", err)
	}
	if len(hdr) < 2 || len(hdr) > len(metaHeader) || !slices.Equal(hdr, metaHeader[:len(hdr)]) {
		return Meta{}, false, ErrBadHeader
	}
	rec, err := r.Read()
	if err != nil {
		return Meta{}, false, fmt.Errorf("feeds: reading meta row: %w", err)
	}
	if len(rec) != len(hdr) {
		return Meta{}, false, fmt.Errorf("feeds: meta row %v does not match header %v", rec, hdr)
	}
	users, err1 := strconv.Atoi(rec[0])
	seed, err2 := strconv.ParseUint(rec[1], 10, 64)
	for _, err := range []error{err1, err2} {
		if err != nil {
			return Meta{}, false, fmt.Errorf("feeds: bad meta row %v: %w", rec, err)
		}
	}
	m = Meta{Users: users, Seed: seed}
	if len(rec) > 2 {
		m.Scenario = rec[2]
	}
	if len(rec) > 3 {
		m.Format = rec[3]
	}
	// The numeric tail columns arrived together; parse whichever are
	// present.
	for i, dst := range []*int{&m.FormatVersion, &m.Part, &m.Parts} {
		col := 4 + i
		if len(rec) <= col {
			break
		}
		v, err := strconv.Atoi(rec[col])
		if err != nil {
			return Meta{}, false, fmt.Errorf("feeds: bad meta field %s=%q: %w", metaHeader[col], rec[col], err)
		}
		*dst = v
	}
	for i, dst := range []*uint32{&m.UserLo, &m.UserHi} {
		col := 7 + i
		if len(rec) <= col {
			break
		}
		v, err := strconv.ParseUint(rec[col], 10, 32)
		if err != nil {
			return Meta{}, false, fmt.Errorf("feeds: bad meta field %s=%q: %w", metaHeader[col], rec[col], err)
		}
		*dst = uint32(v)
	}
	return m, true, nil
}

// ErrStackMismatch reports a feed directory whose sidecar names a
// different user count or seed than the stack a replay rebuilt. The
// replay commands treat it as a usage error.
var ErrStackMismatch = errors.New("feeds: stack mismatch")

// ReadMetaFor loads dir's sidecar for a replay over the stack built
// with users native users and seed. A sidecar naming another stack
// fails with an error wrapping ErrStackMismatch: feed IDs are only
// meaningful relative to the stack that wrote them. A directory without
// a sidecar (written before it existed) replays unchecked, as
// Meta{Users: users, Seed: seed}.
func ReadMetaFor(dir string, users int, seed uint64) (Meta, error) {
	m, ok, err := ReadMeta(dir)
	switch {
	case err != nil:
		return Meta{}, err
	case !ok:
		return Meta{Users: users, Seed: seed}, nil
	case m.Users != users || m.Seed != seed:
		return Meta{}, fmt.Errorf("%w: %s was generated with -users %d -seed %d (got -users %d -seed %d); IDs in the feeds are only meaningful relative to that stack",
			ErrStackMismatch, dir, m.Users, m.Seed, users, seed)
	}
	return m, nil
}
