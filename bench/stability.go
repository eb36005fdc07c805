package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// stability runs every workload o.runs times, each run a fresh child
// process with its own seed, alternating the workload order between
// rounds, and prints each end-to-end metric's median and quartiles with
// the bound they suggest: max(10%, 2·IQR/median).
func stability(ctx context.Context, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := append([]string(nil), workloadNames...)
	values := map[string]map[string][]float64{} // workload → metric → runs
	for run := 0; run < o.runs; run++ {
		order := names
		if run%2 == 1 {
			order = reversed(names)
		}
		for _, w := range order {
			seed := o.seed + uint64(run)
			cmd := exec.CommandContext(ctx, self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", "0", "-workdir", o.workdir)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				os.Stdout.Write(out.Bytes())
				return fmt.Errorf("bench: %s seed %d: %w", w, seed, err)
			}
			vals, correct, err := parseResult(out.Bytes())
			if err != nil {
				return err
			}
			if !correct {
				return fmt.Errorf("bench: %s seed %d was incorrect", w, seed)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, v := range vals {
				values[w][k] = append(values[w][k], v)
			}
			fmt.Printf("run %d %s seed %d done\n", run+1, w, seed)
		}
	}
	fmt.Printf("%-12s %-18s %12s %12s %12s %9s %9s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "bound")
	for _, w := range names {
		for _, k := range sortedKeys(values[w]) {
			q1, q2, q3 := quartiles(values[w][k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("%-12s %-18s %12.6g %12.6g %12.6g %9.4f %9.4f\n", w, k, q1, q2, q3, spread, max(0.10, 2*spread))
		}
	}
	return nil
}

func reversed(xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
