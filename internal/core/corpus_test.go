package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/rng"
	"repro/internal/workload"
)

// corpusSize is the number of seeded configurations the corpus pins, and
// corpusOps the micro-ops each one runs.
const (
	corpusSize = 64
	corpusOps  = 20_000
)

// corpusStrides are the RunCycles strides the entries cycle through:
// stride 1 and the odd strides read the counters mid-flight at cycles
// no interval length would land on.
var corpusStrides = []uint64{1, 3, 7, 61, 250, 997, 1000, 4099}

// corpusGates are the fetch-gate duty cycles (num, den) a schedule draws
// from; {0, 0} removes the gate.
var corpusGates = [][2]int{{0, 0}, {1, 2}, {3, 4}, {1, 3}, {2, 5}}

// corpusEntry is one seeded run of the corpus.
type corpusEntry struct {
	seed   uint64
	cfg    Config
	bench  string
	stride uint64
	// gates is the fetch-gate schedule: gates[i%len] applies from the
	// i-th reconfiguration on, one every reconfigEvery strides, and each
	// reconfiguration also runs the trace cache's interval policy.
	gates         [][2]int
	reconfigEvery uint64
}

// pick returns one element of xs drawn from r.
func pick[T any](r *rng.Source, xs ...T) T { return xs[r.Intn(len(xs))] }

// newCorpusEntry draws a valid configuration over the axes Validate
// allows, with a benchmark, a RunCycles stride and a fetch-gate schedule.
func newCorpusEntry(seed uint64) corpusEntry {
	r := rng.New(seed)
	c := DefaultConfig()
	c.Clusters = pick(r, 1, 2, 4, 8)
	var divisors []int
	for f := 1; f <= c.Clusters; f++ {
		if c.Clusters%f == 0 {
			divisors = append(divisors, f)
		}
	}
	c.Frontends = pick(r, divisors...)

	c.Cluster.IntQ = pick(r, 4, 8, 16, 40)
	c.Cluster.FPQ = pick(r, 4, 8, 16, 40)
	c.Cluster.CopyQ = pick(r, 4, 8, 16, 40)
	c.Cluster.MemQ = pick(r, 8, 24, 96)
	c.Cluster.Prescheduler = pick(r, 2, 3, 5, 8, 20)
	c.Cluster.MOBEntries = pick(r, 8, 32, 96)

	c.TC.Banks = pick(r, 1, 2, 3, 4)
	switch mode := r.Intn(4); {
	case mode == 1 && c.TC.Banks >= 2:
		c.TC.Hopping = true
		if c.TC.Banks >= 3 && r.Bool(0.5) {
			c.TC.StaticGate = r.Intn(c.TC.Banks - 1) // never the first hop's bank
		}
	case mode == 2:
		c = c.WithBlankSilicon()
	case mode == 3 && c.TC.Banks >= 2:
		c.TC.StaticGate = r.Intn(c.TC.Banks)
	}
	c.TC.Biased = r.Bool(0.3)

	c.MemBuses = pick(r, 1, 2, 4)
	c.DisBuses = pick(r, 1, 2, 4)
	c.BusLatency = pick(r, 1, 2, 4, 8)
	c.BusArbiter = pick(r, 0, 1, 2)
	c.LinkWidth = pick(r, 1, 2, 3)

	c.UseBranchPredictor = r.Bool(0.3)
	c.BPredBits = pick[uint](r, 8, 14)

	c.RedirectPenalty = pick(r, 0, 2, 5)
	c.DispatchLatency = pick(r, 1, 4, 10)
	c.MemLat = pick(r, 50, 200, 500)
	c.UL2HitLat = pick(r, 4, 12)
	c.DTLBMissLat = pick(r, 5, 30)

	e := corpusEntry{
		seed:   seed,
		cfg:    c,
		bench:  pick(r, workload.Names()...),
		stride: corpusStrides[seed%uint64(len(corpusStrides))],
	}
	for n := r.Intn(4); n > 0; n-- {
		e.gates = append(e.gates, pick(r, corpusGates...))
	}
	e.reconfigEvery = max(1, pick[uint64](r, 500, 2000, 7000)/e.stride)
	return e
}

// start builds the entry's processor and the schedule steppedDigest
// runs between its snapshots.
func (e corpusEntry) start() (*Processor, func(k uint64)) {
	prof, _ := workload.ByName(e.bench)
	prof.LengthScale = 1
	p := New(e.cfg, workload.NewGenerator(prof, corpusOps))
	temps := make([]float64, e.cfg.TC.Banks)
	return p, func(k uint64) {
		if k%e.reconfigEvery != 0 {
			return
		}
		i := k / e.reconfigEvery
		if len(e.gates) > 0 {
			g := e.gates[i%uint64(len(e.gates))]
			p.SetFetchGate(g[0], g[1])
		}
		for b := range temps {
			temps[b] = 60 + float64((uint64(b)*7+i)%5)
		}
		p.TraceCache().Reconfigure(temps)
	}
}

// run executes the entry to completion and returns its digest: the cycle
// count and activity digest of steppedDigest, plus Stats.ReadyEvals.
func (e corpusEntry) run() []string {
	p, between := e.start()
	d := steppedDigest(p, e.stride, between)
	return append(d, fmt.Sprintf("ready_evals=%d", p.Stats.ReadyEvals))
}

// TestConfigCorpusDigest pins the cycle loop over a seeded corpus of
// configurations well away from Table 1: one to eight clusters, small
// queues and preschedulers, trace-cache hopping, biasing and gating,
// buses, links, the branch predictor and the latencies, each with a
// RunCycles stride and a fetch-gate schedule.  A counter that shifts,
// or a counter read mid-flight that is not exact, changes an entry's
// digest; a panic or the commit watchdog fails the test and names the
// seed that reproduces it (newCorpusEntry(seed)).
func TestConfigCorpusDigest(t *testing.T) {
	entries := make([]corpusEntry, corpusSize)
	for i := range entries {
		entries[i] = newCorpusEntry(uint64(i + 1))
	}
	got := make(map[string][]string, len(entries))
	var mu sync.Mutex
	next := make(chan corpusEntry)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range next {
				d, err := e.runRecovered()
				mu.Lock()
				if err != nil {
					t.Errorf("corpus seed %d (%s): %v", e.seed, e.bench, err)
				} else {
					got[fmt.Sprintf("seed=%02d/%s", e.seed, e.bench)] = d
				}
				mu.Unlock()
			}
		}()
	}
	for _, e := range entries {
		next <- e
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		return
	}
	goldentest.Check(t, filepath.Join("testdata", "golden_config_corpus.json"), got, *updateGolden)
}

// runRecovered is run with a panic turned into an error.
func (e corpusEntry) runRecovered() (d []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.run(), nil
}
