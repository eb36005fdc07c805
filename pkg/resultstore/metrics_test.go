package resultstore

import (
	"strings"
	"testing"

	"repro/pkg/obs"
)

// TestRegisterMetricsExposition drives the store shape the serving
// processes build — a tiered memory/disk pair — through RegisterMetrics
// and traffic: the deprecated call registers no family, because every
// store counter reaches /metrics through Stats instead.
func TestRegisterMetricsExposition(t *testing.T) {
	disk := openDisk(t, t.TempDir(), DiskConfig{SegmentBytes: 4096})
	tiered := NewTiered(NewMemory(16), disk)
	t.Cleanup(func() { tiered.Close() })

	reg := obs.NewRegistry()
	RegisterMetrics(reg, tiered)
	mustSet(t, tiered, "key", "value")
	mustGet(t, tiered, "key")
	mustGet(t, tiered, "missing")

	if got := reg.Render(); strings.Contains(got, "store_") {
		t.Errorf("RegisterMetrics registered families:\n%s", got)
	}
}

// TestRegisterMetricsIgnoresUnknownStores: stores without a metrics
// mapping (plain memory) register nothing and do not panic.
func TestRegisterMetricsIgnoresUnknownStores(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg, NewMemory(4))
	if got := reg.Render(); strings.Contains(got, "store_") {
		t.Errorf("memory store registered families:\n%s", got)
	}
}
