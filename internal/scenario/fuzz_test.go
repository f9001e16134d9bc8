package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecUnmarshal fuzzes the JSON spec parser with the registry's
// golden files as the seed corpus. The contract under arbitrary input:
// Parse never panics (it may error), and any input it accepts is a
// valid spec whose canonical JSON form round-trips losslessly —
// re-parsing the marshalled form must succeed and re-marshal to the
// same bytes — and whose compilation to a pandemic.Scenario never
// panics (validation errors are fine). Equality is checked on the
// canonical form, not the structs, because omitempty collapses empty
// (non-nil) curves and maps to absent fields by design.
func FuzzSpecUnmarshal(f *testing.F) {
	for _, name := range Names() {
		data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","null":true}`))
	f.Add([]byte(`{"activity":[{"day":0,"value":1},{"day":76,"value":0.5}],"relocation":true}`))
	f.Add([]byte(`{"case_curve":{"plateau":1e6,"growth":0.2,"mid_day":40}}`))
	f.Add([]byte(`{"relax_bonus":{"Inner London":0.15}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		canon, err := indentJSON(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec is rejected: %v\ninput: %q\ncanonical: %s", err, data, canon)
		}
		canon2, err := indentJSON(sp2)
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("round trip is lossy:\nfirst:  %s\nsecond: %s", canon, canon2)
		}
		// Compilation may reject the spec (anchor windows, negative
		// values) but must never panic.
		_, _ = sp.Scenario()
		_, _ = sp2.Scenario()
	})
}
