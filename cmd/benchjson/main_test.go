package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Record
		ok   bool
	}{
		{
			name: "suffixed",
			line: "BenchmarkSchedulerDispatch-2   \t   11588\t    180529 ns/op\t   17118 B/op\t     119 allocs/op",
			want: Record{Name: "BenchmarkSchedulerDispatch", Iterations: 11588,
				Metrics: map[string]float64{"ns/op": 180529, "B/op": 17118, "allocs/op": 119}},
			ok: true,
		},
		{
			name: "unsuffixed",
			line: "BenchmarkTraceCacheAccess 43887754 49.17 ns/op 0 B/op 0 allocs/op",
			want: Record{Name: "BenchmarkTraceCacheAccess", Iterations: 43887754,
				Metrics: map[string]float64{"ns/op": 49.17, "B/op": 0, "allocs/op": 0}},
			ok: true,
		},
		{
			name: "sub-benchmark",
			line: "BenchmarkX/case-8 3 412079128 ns/op 265471 cycles/op",
			want: Record{Name: "BenchmarkX/case", Iterations: 3,
				Metrics: map[string]float64{"ns/op": 412079128, "cycles/op": 265471}},
			ok: true,
		},
		{name: "header", line: "goos: linux"},
		{name: "pass", line: "PASS"},
		{name: "package summary", line: "ok  \trepro\t12.345s"},
		{name: "run line", line: "=== RUN   BenchmarkX"},
		{name: "name only", line: "BenchmarkX-8"},
		{name: "non-numeric iterations", line: "BenchmarkX-8 --- FAIL: something"},
		{name: "empty", line: ""},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok {
			t.Errorf("%s: parseLine(%q) ok = %v, want %v", c.name, c.line, ok, c.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: parseLine(%q) = %+v, want %+v", c.name, c.line, got, c.want)
		}
	}
}
