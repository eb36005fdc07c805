package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number.  N is the sample count behind a
// percentile (0 otherwise).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report is one run's verdict and metrics.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric // in the JSON line
	Notes     []metric // printed only
	Lines     []string // printed only
}

// print writes the human-readable lines, then the JSON result as the last
// line.
func (r *report) print(w io.Writer) error {
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Notes...) {
		line := fmt.Sprintf("  %-36s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" (n=%d)", m.N)
		}
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// pct reports the p-th percentile of xs as name_p<p> with its count.
func pct(name string, xs []float64, p float64, unit string) metric {
	return metric{Name: fmt.Sprintf("%s_p%g", name, p), Value: percentile(xs, p), Unit: unit, N: len(xs)}
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method): the three cut points at positions i·(n+1)/4, interpolated.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// parseResult reads the JSON result from the last line of a run's
// output.
func parseResult(out []byte) (map[string]float64, bool, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, false, fmt.Errorf("bench: no result line: %w", err)
	}
	vals := map[string]float64{}
	for k, v := range res.Metrics {
		vals[k] = v.Value
	}
	return vals, res.Correct, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
