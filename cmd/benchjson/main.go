// benchjson converts `go test -bench` output on stdin into a JSON report.
// It passes the raw output through to stdout unchanged (so `make bench`
// stays readable) and writes the parsed form to the -o file:
//
//	go test -bench . -benchmem | benchjson -o BENCH_results.json
//
// Each benchmark line becomes one record with the iteration count and
// every reported metric (ns/op, B/op, allocs/op, custom ReportMetric
// units) keyed by unit name.  Record names drop the trailing
// -<GOMAXPROCS> suffix, so rows from hosts with different CPU counts
// diff against each other.
//
// When a baseline report exists (-baseline, default: the previous
// contents of the -o file — normally the committed BENCH_results.json),
// a per-benchmark delta of every shared metric is printed after the run,
// so a bench refresh shows what moved against the committed numbers.
//
// Given two files of benchmark output instead of stdin, it compares them
// as paired runs (the i-th run of a benchmark in one file against the
// i-th in the other) and prints, per benchmark, each side's median
// [q1–q3] of ns/op, the ratio of the medians and the pairs the second
// file won; `make bench-ab` writes the two files:
//
//	benchjson base.out new.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output JSON path")
	baseline := flag.String("baseline", "", "baseline JSON to diff against (default: previous contents of -o)")
	flag.Parse()
	if flag.NArg() == 2 {
		if err := runAB(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	basePath := *baseline
	if basePath == "" {
		basePath = *out
	}
	base := readBaseline(basePath) // before -o is overwritten

	var records []Record
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseLine(line); ok {
			records = append(records, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	b, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	printDelta(base, basePath, records)
}

// readBaseline loads a previous report; a missing or unparsable file just
// disables the delta (first runs have nothing to diff against).
func readBaseline(path string) []Record {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var records []Record
	if json.Unmarshal(b, &records) != nil {
		return nil
	}
	for i := range records {
		records[i].Name = trimProcs(records[i].Name)
	}
	return records
}

// printDelta prints, per benchmark present in both reports, the old and
// new value of every shared metric with its relative change.
func printDelta(base []Record, basePath string, records []Record) {
	if len(base) == 0 {
		return
	}
	old := make(map[string]map[string]float64, len(base))
	for _, r := range base {
		old[r.Name] = r.Metrics
	}
	printed := false
	for _, r := range records {
		om, ok := old[r.Name]
		if !ok {
			continue
		}
		var units []string
		for u := range r.Metrics {
			if _, ok := om[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		var parts []string
		for _, u := range units {
			ov, nv := om[u], r.Metrics[u]
			if ov == nv {
				continue
			}
			part := fmt.Sprintf("%s %s -> %s", u, formatVal(ov), formatVal(nv))
			if ov != 0 {
				part += fmt.Sprintf(" (%+.1f%%)", (nv-ov)/ov*100)
			}
			parts = append(parts, part)
		}
		if len(parts) == 0 {
			continue
		}
		if !printed {
			fmt.Printf("\ndelta vs %s:\n", basePath)
			printed = true
		}
		fmt.Printf("  %-32s %s\n", r.Name, strings.Join(parts, ", "))
	}
	if printed {
		fmt.Println()
	}
}

// formatVal renders a metric without trailing noise for integral values.
func formatVal(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// trimProcs drops the -<GOMAXPROCS> suffix go test appends to a
// benchmark name ("BenchmarkX/case-8" -> "BenchmarkX/case").  go test
// omits the suffix at GOMAXPROCS=1, so a name already ending in -<digits>
// is ambiguous; no benchmark here is named that way.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.ParseUint(name[i+1:], 10, 0); err != nil {
		return name
	}
	return name[:i]
}

// parseLine parses one "BenchmarkX-8  3  123 ns/op  4 B/op ..." line
// into a record named without the -8.
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: trimProcs(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
