package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
)

// abRow is the paired comparison of one benchmark's ns/op: the i-th run
// of the base side pairs with the i-th run of the new side.
type abRow struct {
	Name      string
	Base, New []float64
	Won       int // pairs where new is faster than base
}

// readRuns parses a file of `go test -bench` output into each
// benchmark's ns/op values, in run order, and the benchmark order.
func readRuns(path string) (map[string][]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := map[string][]float64{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		v, ok := r.Metrics["ns/op"]
		if !ok {
			continue
		}
		if _, seen := runs[r.Name]; !seen {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], v)
	}
	return runs, order, sc.Err()
}

// pairRuns pairs the benchmarks both sides ran, in the new side's order.
// A benchmark with fewer runs on one side pairs only as many runs.
func pairRuns(base, cur map[string][]float64, order []string) []abRow {
	var rows []abRow
	for _, name := range order {
		b, ok := base[name]
		if !ok {
			continue
		}
		n := min(len(b), len(cur[name]))
		row := abRow{Name: name, Base: b[:n], New: cur[name][:n]}
		for i := 0; i < n; i++ {
			if row.New[i] < row.Base[i] {
				row.Won++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// writeAB prints one line per paired benchmark: each side's median
// [q1–q3] of ns/op, the ratio of the medians (new/base) and the pairs
// the new side won.
func writeAB(w io.Writer, rows []abRow) {
	fmt.Fprintf(w, "%-32s %-30s %-30s %6s %s\n", "benchmark (ns/op)", "base median [q1–q3]", "new median [q1–q3]", "ratio", "won")
	for _, r := range rows {
		side := func(xs []float64) string {
			return fmt.Sprintf("%s [%s–%s]", formatNs(quantile(xs, 0.5)), formatNs(quantile(xs, 0.25)), formatNs(quantile(xs, 0.75)))
		}
		ratio := quantile(r.New, 0.5) / quantile(r.Base, 0.5)
		fmt.Fprintf(w, "%-32s %-30s %-30s %6.3f %d/%d\n", r.Name, side(r.Base), side(r.New), ratio, r.Won, len(r.New))
	}
}

// formatNs renders a duration in ns/op with a readable unit.
func formatNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

// runAB reads the base and new sides' outputs and prints the summary.
func runAB(w io.Writer, basePath, newPath string) error {
	base, _, err := readRuns(basePath)
	if err != nil {
		return err
	}
	cur, order, err := readRuns(newPath)
	if err != nil {
		return err
	}
	rows := pairRuns(base, cur, order)
	if len(rows) == 0 {
		return fmt.Errorf("no benchmark ran on both sides (%s, %s)", basePath, newPath)
	}
	writeAB(w, rows)
	return nil
}
