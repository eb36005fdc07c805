package resultstore

import (
	"slices"
	"testing"

	"repro/internal/memcachetest"
)

// TestOpenStack maps each combination of tier settings to the stack it
// assembles, front tier first, and round-trips a value through it.  A
// disk tier together with a remote one is an error.
func TestOpenStack(t *testing.T) {
	srv := memcachetest.Start(t)
	remote := RemoteConfig{Servers: []string{srv.Addr()}}
	cases := []struct {
		name   string
		cache  int
		disk   bool
		remote bool
		tiers  []string // nil: no store
		err    bool
	}{
		{"nothing", 0, false, false, nil, false},
		{"memory", 8, false, false, []string{"memory"}, false},
		{"disk", 0, true, false, []string{"disk"}, false},
		{"memory-disk", 8, true, false, []string{"memory", "disk"}, false},
		{"remote", 0, false, true, []string{"remote"}, false},
		{"memory-remote", 8, false, true, []string{"memory", "remote"}, false},
		{"disk-and-remote", 8, true, true, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dc DiskConfig
			if tc.disk {
				dc.Dir = t.TempDir()
			}
			var rc RemoteConfig
			if tc.remote {
				rc = remote
			}
			store, disk, err := OpenStack(tc.cache, dc, rc)
			if (err != nil) != tc.err {
				t.Fatalf("err = %v, want error %v", err, tc.err)
			}
			if (disk != nil) != (tc.disk && !tc.err) {
				t.Errorf("disk tier returned = %v, want %v", disk != nil, tc.disk && !tc.err)
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
