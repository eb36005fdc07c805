package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// skipCase is one run of TestSkipMatchesStepping: start builds a fresh
// processor and the schedule to run after each stride (nil: none).
type skipCase struct {
	name   string
	stride uint64
	start  func() (*Processor, func(k uint64))
}

// TestSkipMatchesStepping checks the skip of quiet cycles in RunCycles
// against Step, which advances exactly one cycle: every corpus entry
// and every configuration of TestGoldenActivityDigest runs once by Step
// per cycle and once by RunCycles at the entry's stride (the digest's
// 1,000 cycles for the digest configurations), with the same
// reconfiguration schedule after each stride.  The Activity snapshots
// and Stats must agree every 1,000 cycles and at the end; a mismatch
// names the first cycle and counter that differ.
func TestSkipMatchesStepping(t *testing.T) {
	var cases []skipCase
	for i := 1; i <= corpusSize; i++ {
		e := newCorpusEntry(uint64(i))
		cases = append(cases, skipCase{fmt.Sprintf("seed=%02d/%s", e.seed, e.bench), e.stride, e.start})
	}
	for _, c := range digestConfigs() {
		for _, bench := range workload.Names() {
			cases = append(cases, skipCase{bench + "/" + c.name, digestEvery, func() (*Processor, func(uint64)) {
				prof, _ := workload.ByName(bench)
				prof.LengthScale = 1
				return New(c.cfg, workload.NewGenerator(prof, digestOps)), nil
			}})
		}
	}
	next := make(chan skipCase)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if msg := skipMismatch(c); msg != "" {
					t.Errorf("%s (stride %d): %s", c.name, c.stride, msg)
				}
			}
		}()
	}
	for _, c := range cases {
		next <- c
	}
	close(next)
	wg.Wait()
}

// skipMismatch runs c by Step and by RunCycles side by side and
// describes the first difference, or returns "".
func skipMismatch(c skipCase) string {
	const every = 1_000
	ref, refBetween := c.start()
	skip, skipBetween := c.start()
	var ra, sa Activity
	for k := uint64(1); ; {
		stop := min(k*c.stride, (ref.Cycle()/every+1)*every)
		for ref.Cycle() < stop && !ref.Done() {
			ref.Step()
		}
		skip.RunCycles(stop - skip.Cycle())
		if ref.Cycle() != skip.Cycle() {
			return fmt.Sprintf("stepping stopped at cycle %d, skipping at %d", ref.Cycle(), skip.Cycle())
		}
		done := ref.Done()
		if done != skip.Done() {
			return fmt.Sprintf("cycle %d: stepping done %v, skipping done %v", stop, done, !done)
		}
		if stop%every == 0 || done {
			ref.ActivityInto(&ra)
			skip.ActivityInto(&sa)
			if d := firstDiff("Activity", reflect.ValueOf(ra), reflect.ValueOf(sa)); d != "" {
				return fmt.Sprintf("cycle %d: %s", ref.Cycle(), d)
			}
			if d := firstDiff("Stats", reflect.ValueOf(ref.Stats), reflect.ValueOf(skip.Stats)); d != "" {
				return fmt.Sprintf("cycle %d: %s", ref.Cycle(), d)
			}
		}
		if done {
			return ""
		}
		if stop == k*c.stride {
			if refBetween != nil {
				refBetween(k)
				skipBetween(k)
			}
			k++
		}
	}
}

// firstDiff names the first counter, in declaration order, in which a
// and b differ, with both values; "" when they are equal.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries stepping, %d skipping", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %v stepping, %v skipping", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// TestWatchdogFiresAcrossSkippedCycles gives every memory access a
// latency past the commit watchdog, so the first load that misses holds
// the ROB head: the watchdog must panic at the same cycle whether the
// loop steps every cycle or skips the quiet ones.
func TestWatchdogFiresAcrossSkippedCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemLat = 600_000
	run := func(drive func(p *Processor)) (p *Processor, msg string) {
		prof, _ := workload.ByName("mcf")
		prof.LengthScale = 1
		p = New(cfg, workload.NewGenerator(prof, 5_000))
		defer func() { msg = fmt.Sprint(recover()) }()
		drive(p)
		return p, ""
	}
	step, stepMsg := run(func(p *Processor) {
		for !p.Done() {
			p.Step()
		}
	})
	skip, skipMsg := run(func(p *Processor) { p.Run(0) })
	const want = "core: no commit for 500001 cycles"
	if !strings.HasPrefix(stepMsg, want) || !strings.HasPrefix(skipMsg, want) {
		t.Fatalf("want a %q panic from both drivers; stepping: %q, skipping: %q", want, stepMsg, skipMsg)
	}
	if step.Cycle() != skip.Cycle() || stepMsg != skipMsg {
		t.Errorf("stepping panicked at cycle %d (%q), skipping at %d (%q)", step.Cycle(), stepMsg, skip.Cycle(), skipMsg)
	}
	if skip.stepped > watchdogCycles/10 {
		t.Errorf("Run stepped %d of the %d cycles to the panic", skip.stepped, skip.Cycle())
	}
}

// TestRunSkipsQuietCycles checks that Run and RunCycles do skip: on the
// Table 1 machine most of gzip's cycles are quiet (over 80% at 50k
// micro-ops), so at most half of them may be stepped.
func TestRunSkipsQuietCycles(t *testing.T) {
	for _, drive := range []struct {
		name string
		run  func(p *Processor)
	}{
		{"Run", func(p *Processor) { p.Run(0) }},
		{"RunCycles", func(p *Processor) {
			for !p.Done() {
				p.RunCycles(10_000)
			}
		}},
	} {
		prof, _ := workload.ByName("gzip")
		prof.LengthScale = 1
		p := New(DefaultConfig(), workload.NewGenerator(prof, 50_000))
		drive.run(p)
		if p.stepped > p.Cycle()/2 {
			t.Errorf("%s stepped %d of %d cycles", drive.name, p.stepped, p.Cycle())
		}
	}
}
