package popsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/radio"
)

// nativeInCounty lists the native smartphone agents homed in county c,
// in ID order.
func nativeInCounty(p *Population, c census.CountyID) []UserID {
	var out []UserID
	for _, id := range p.Native() {
		if p.Users[id].HomeCounty == c {
			out = append(out, id)
		}
	}
	return out
}

// fingerprint hashes every field of every User, Native() and the native
// agents of every county, so a change to synthesis that moves any draw,
// any ID or any index shows as a different digest.
func fingerprint(p *Population) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	ids := func(v []UserID) {
		u64(uint64(len(v)))
		for _, id := range v {
			u64(uint64(id))
		}
	}
	u64(uint64(len(p.Users)))
	for i := range p.Users {
		u := &p.Users[i]
		u64(uint64(u.ID))
		u64(uint64(u.Kind))
		u64(uint64(u.Profile))
		u64(uint64(u.Device.TAC))
		str(u.Device.Manufacturer)
		str(u.Device.Model)
		str(u.Device.OS)
		u64(uint64(u.Device.Class))
		flag(u.Device.LTECapable)
		u64(uint64(u.PLMN.MCC))
		u64(uint64(u.PLMN.MNC))
		u64(uint64(u.HomeDistrict))
		u64(uint64(u.HomeCounty))
		u64(uint64(u.HomeTower))
		u64(uint64(u.Cluster))
		u64(uint64(len(u.Anchors)))
		for _, a := range u.Anchors {
			u64(uint64(a.Kind))
			u64(uint64(a.Tower))
			u64(uint64(a.District))
			u64(math.Float64bits(a.Weight))
		}
		flag(u.Relocates)
		u64(uint64(u.RelocTower))
		u64(uint64(u.RelocDistrict))
		u64(uint64(u.RelocCounty))
		u64(math.Float64bits(u.NightOff))
	}
	ids(p.Native())
	for ci := range p.Model().Counties {
		ids(nativeInCounty(p, census.CountyID(ci)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintInputs builds the census model and topology of a seed.
func fingerprintInputs(seed uint64) (*census.Model, *radio.Topology) {
	m := census.BuildUK(seed)
	return m, radio.Build(m, radio.DefaultConfig(), seed)
}

// TestSynthesizeFingerprint pins the whole synthesized population to
// the digests of the serial implementation it replaced, at one and two
// workers: parallel synthesis must not move a single draw.
func TestSynthesizeFingerprint(t *testing.T) {
	cases := []struct {
		seed  uint64
		users int
		want  string
	}{
		{42, 50_000, "4b1b55ae8fb111f2410abca231b38ea79b497b2aafc5f4cf1c05a560917898f1"},
		{7, 8_000, "80139228dcb7ba5b582e6e5fdc3273dfc0390e827012c332954a9313437d5f8c"},
		{1, 500, "ee18d7c140fd8b16a9bd5c43d826dc1466d1c2e279befe6e0ffdd538acd02689"},
	}
	for _, tc := range cases {
		m, topo := fingerprintInputs(tc.seed)
		cfg := Config{Seed: tc.seed, TargetUsers: tc.users, M2MFraction: 0.08, RoamerFraction: 0.03}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed=%d/users=%d/workers=%d", tc.seed, tc.users, workers), func(t *testing.T) {
				if got := fingerprint(synthesize(m, topo, cfg, workers)); got != tc.want {
					t.Errorf("population digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// TestColsSealedBySynthesize reads the columnar mirror from two
// goroutines on a fresh population: Synthesize seals it, so neither
// first call may build it (under -race a lazy build is a data race).
func TestColsSealedBySynthesize(t *testing.T) {
	m, topo := fingerprintInputs(1)
	p := Synthesize(m, topo, Config{Seed: 3, TargetUsers: 500, M2MFraction: 0.08, RoamerFraction: 0.03})
	var wg sync.WaitGroup
	cols := make([]*Columns, 2)
	for g := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[g] = p.Cols()
		}()
	}
	wg.Wait()
	if cols[0] != cols[1] || len(cols[0].HomeTower) != len(p.Users) {
		t.Fatalf("Cols: %p and %p, %d of %d users", cols[0], cols[1], len(cols[0].HomeTower), len(p.Users))
	}
	for i := range p.Users {
		u := &p.Users[i]
		c := cols[0]
		if c.HomeTower[i] != u.HomeTower || c.NightOff[i] != u.NightOff || c.Relocates[i] != u.Relocates ||
			c.RelocTower[i] != u.RelocTower || c.Profile[i] != u.Profile {
			t.Fatalf("user %d: columns disagree with the user", i)
		}
	}
}
