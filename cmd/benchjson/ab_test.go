package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its input")
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

// TestABSummary pairs two sides' runs by position: medians, quartiles,
// the ratio of the medians and the pairs won, for the benchmarks both
// sides ran, in the new side's order.
func TestABSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.out",
		"goos: linux",
		"BenchmarkSim-2 3 100000000 ns/op 265471 cycles/op",
		"BenchmarkCold-2 3 1000000000 ns/op 125.0 ms/run",
		"PASS",
		"BenchmarkSim-2 3 110000000 ns/op 265471 cycles/op",
		"BenchmarkCold-2 3 1100000000 ns/op 137.5 ms/run",
		"BenchmarkSim-2 3 90000000 ns/op 265471 cycles/op",
		"BenchmarkCold-2 3 900000000 ns/op 112.5 ms/run",
		"BenchmarkOnlyBase-2 3 5 ns/op",
	)
	cur := write("new.out",
		"BenchmarkCold-2 3 800000000 ns/op 100.0 ms/run",
		"BenchmarkSim-2 3 70000000 ns/op 265471 cycles/op",
		"BenchmarkCold-2 3 1200000000 ns/op 150.0 ms/run",
		"BenchmarkSim-2 3 80000000 ns/op 265471 cycles/op",
		"BenchmarkCold-2 3 850000000 ns/op 106.3 ms/run",
		"BenchmarkSim-2 3 75000000 ns/op 265471 cycles/op",
		"BenchmarkOnlyNew-2 3 5 ns/op",
	)
	b, _, err := readRuns(base)
	if err != nil {
		t.Fatal(err)
	}
	c, order, err := readRuns(cur)
	if err != nil {
		t.Fatal(err)
	}
	rows := pairRuns(b, c, order)
	if len(rows) != 2 || rows[0].Name != "BenchmarkCold" || rows[1].Name != "BenchmarkSim" {
		t.Fatalf("rows %+v, want BenchmarkCold then BenchmarkSim", rows)
	}
	if rows[0].Won != 2 || rows[1].Won != 3 {
		t.Errorf("pairs won %d and %d, want 2 (Cold lost its second pair) and 3", rows[0].Won, rows[1].Won)
	}
	var out strings.Builder
	writeAB(&out, rows)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("summary has %d lines, want a header and 2 rows:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"1000.0ms [950.0ms–1050.0ms]", "850.0ms [825.0ms–1025.0ms]", "0.850", "2/3"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("Cold row %q lacks %q", lines[1], want)
		}
	}
	for _, want := range []string{"100.0ms [95.0ms–105.0ms]", "75.0ms [72.5ms–77.5ms]", "0.750", "3/3"} {
		if !strings.Contains(lines[2], want) {
			t.Errorf("Sim row %q lacks %q", lines[2], want)
		}
	}
	if err := runAB(&out, base, write("empty.out", "PASS")); err == nil {
		t.Error("runAB found pairs in an output with no benchmarks")
	}
}
