package resultstore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestOpenStack maps each combination of tier settings to the stack it
// assembles, front tier first, and round-trips a value through it.  A
// disk directory that cannot be opened is an error.
func TestOpenStack(t *testing.T) {
	cases := []struct {
		name  string
		cache int
		disk  bool
		tiers []string // nil: no store
	}{
		{"nothing", 0, false, nil},
		{"memory", 8, false, []string{"memory"}},
		{"disk", 0, true, []string{"disk"}},
		{"memory-disk", 8, true, []string{"memory", "disk"}},
		{"unopenable-disk", 8, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dc DiskConfig
			if tc.disk {
				dc.Dir = t.TempDir()
			}
			if tc.disk && tc.tiers == nil {
				// A regular file where the segment directory should be.
				dc.Dir = filepath.Join(dc.Dir, "file")
				if err := os.WriteFile(dc.Dir, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			store, err := OpenStack(tc.cache, dc)
			if (err != nil) != (tc.disk && tc.tiers == nil) {
				t.Fatalf("err = %v", err)
			}
			if tc.tiers == nil {
				if store != nil {
					t.Fatalf("want no store, got a %T", store)
				}
				return
			}
			defer store.Close()
			var tiers []string
			for _, st := range store.Stats() {
				tiers = append(tiers, st.Tier)
			}
			if !slices.Equal(tiers, tc.tiers) {
				t.Errorf("tiers = %v, want %v", tiers, tc.tiers)
			}
			mustSet(t, store, "k-"+tc.name, "v")
			if v, ok := mustGet(t, store, "k-"+tc.name); !ok || string(v) != "v" {
				t.Errorf("round trip = %q %v", v, ok)
			}
		})
	}
}
