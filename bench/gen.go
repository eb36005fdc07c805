package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/pkg/frontendsim"
)

// techniques are the paper's evaluated configurations, as request
// toggles over the baseline: baseline, distributed frontend, bank
// hopping, biased mapping, hopping+biasing, blank silicon, all three
// techniques together, and the DTM fetch-toggling controller.
var techniques = []frontendsim.Request{
	{},
	{Frontends: 2},
	{BankHopping: true},
	{BiasedMapping: true},
	{BankHopping: true, BiasedMapping: true},
	{BlankSilicon: true},
	{Frontends: 2, BankHopping: true, BiasedMapping: true},
	{DTM: true},
}

// The traffic's shape, the same at every size.
const (
	zipfS        = 1.1                   // skew of warm-suite templates and mixed-open hot keys
	openRate     = 60                    // mixed-open requests per second
	repeatWithin = 10 * time.Millisecond // a repeat follows its fresh key within this
)

// params sizes the workloads.  defaultParams is the benchmark; the tests
// shrink it.
type params struct {
	Techniques []frontendsim.Request
	Benchmarks []string

	// cold-suite: closed loop over suites of ColdSuiteLen distinct
	// benchmarks, no key repeated within a run.
	ColdWarmup, ColdMeasure uint64
	ColdIntervals           []uint64
	ColdSuiteLen            int

	// The lengths of the keys warm-suite and mixed-open prefill.  Their
	// results are only ever served, and their size does not depend on the
	// length, so short runs keep the set-up cheap.
	PrefillWarmup, PrefillMeasure uint64

	// warm-suite: closed-loop clients posting whole suites over
	// Techniques × WarmIntervals templates.
	WarmIntervals []uint64

	// mixed-open: Techniques × Benchmarks prefilled hot keys, and fresh
	// keys of FreshOps[0]..FreshOps[1] micro-ops in total.
	HotInterval uint64
	FreshOps    [2]uint64
}

func defaultParams() params {
	return params{
		Techniques:     techniques,
		Benchmarks:     frontendsim.Benchmarks(),
		ColdWarmup:     30_000,
		ColdMeasure:    60_000,
		ColdIntervals:  []uint64{25_000, 50_000, 100_000},
		ColdSuiteLen:   8,
		PrefillWarmup:  300,
		PrefillMeasure: 600,
		WarmIntervals:  []uint64{10_000, 20_000, 40_000},
		HotInterval:    20_000,
		FreshOps:       [2]uint64{4_500, 22_000},
	}
}

// coldGen yields the cold-suite suites in order, without end.  Round r
// covers every technique × interval template over disjoint benchmark
// groups; its requests measure ColdMeasure+r micro-ops, so no canonical
// key repeats across rounds either.
type coldGen struct {
	p      params
	seed   uint64
	rounds [][]frontendsim.SuiteRequest
}

func newColdGen(p params, seed uint64) *coldGen { return &coldGen{p: p, seed: seed} }

func (g *coldGen) suite(i int) frontendsim.SuiteRequest {
	per := len(g.p.Techniques) * len(g.p.ColdIntervals) * (len(g.p.Benchmarks) / g.p.ColdSuiteLen)
	for len(g.rounds) <= i/per {
		g.rounds = append(g.rounds, g.round(len(g.rounds)))
	}
	return g.rounds[i/per][i%per]
}

func (g *coldGen) round(r int) []frontendsim.SuiteRequest {
	rng := rand.New(rand.NewPCG(g.seed, uint64(r)))
	var out []frontendsim.SuiteRequest
	for _, tech := range g.p.Techniques {
		for _, iv := range g.p.ColdIntervals {
			tmpl := tech
			tmpl.WarmupOps = g.p.ColdWarmup
			tmpl.MeasureOps = g.p.ColdMeasure + uint64(r)
			tmpl.IntervalCycles = iv
			names := append([]string(nil), g.p.Benchmarks...)
			rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			for k := 0; k+g.p.ColdSuiteLen <= len(names); k += g.p.ColdSuiteLen {
				out = append(out, frontendsim.SuiteRequest{Benchmarks: names[k : k+g.p.ColdSuiteLen], Request: tmpl})
			}
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return balanced(out)
}

// balanced reorders suites so that every prefix uses the benchmarks as
// evenly as it can: each step takes the first remaining suite whose
// benchmarks have run least so far.  The benchmarks' costs differ
// threefold, so a run that gets through part of a round then sees about
// the same mix whatever the seed.
func balanced(pool []frontendsim.SuiteRequest) []frontendsim.SuiteRequest {
	used := map[string]int{}
	out := make([]frontendsim.SuiteRequest, 0, len(pool))
	for len(pool) > 0 {
		best, bestScore := 0, -1
		for i, s := range pool {
			score := 0
			for _, b := range s.Benchmarks {
				score += used[b]
			}
			if bestScore < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		s := pool[best]
		pool = append(pool[:best], pool[best+1:]...)
		for _, b := range s.Benchmarks {
			used[b]++
		}
		out = append(out, s)
	}
	return out
}

// warmTemplates are the warm-suite suites: every technique × interval
// over all of Benchmarks.
func warmTemplates(p params) []frontendsim.SuiteRequest {
	var out []frontendsim.SuiteRequest
	for _, tech := range p.Techniques {
		for _, iv := range p.WarmIntervals {
			tmpl := tech
			tmpl.WarmupOps, tmpl.MeasureOps, tmpl.IntervalCycles = p.PrefillWarmup, p.PrefillMeasure, iv
			out = append(out, frontendsim.SuiteRequest{Benchmarks: p.Benchmarks, Request: tmpl})
		}
	}
	return out
}

// zipfSeq is an endless seeded sequence of indices into n items,
// Zipf(zipfS) distributed over a seeded permutation of them.  Safe for
// concurrent use; at(i) is a pure function of (seed, i).
type zipfSeq struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	perm []int
	seq  []int
}

func newZipfSeq(seed uint64, n int) *zipfSeq {
	rng := rand.New(rand.NewPCG(seed, 0x7a1f))
	return &zipfSeq{zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfSeq) at(i int) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	for len(z.seq) <= i {
		z.seq = append(z.seq, z.perm[z.zipf.Uint64()])
	}
	return z.seq[i]
}

// hotRequests are mixed-open's prefilled keys: every technique × benchmark
// at tiny lengths.
func hotRequests(p params) []frontendsim.Request {
	var out []frontendsim.Request
	for _, tech := range p.Techniques {
		for _, b := range p.Benchmarks {
			r := tech
			r.Benchmark = b
			r.WarmupOps, r.MeasureOps, r.IntervalCycles = p.PrefillWarmup, p.PrefillMeasure, p.HotInterval
			out = append(out, r)
		}
	}
	return out
}

// Request classes of mixed-open.
const (
	classHot    = iota // a prefilled key
	classFresh         // a key never sent before
	classRepeat        // a fresh key sent again while it is in flight
)

// openReq is one scheduled mixed-open request.
type openReq struct {
	Due   time.Duration
	Class int
	Req   frontendsim.Request
}

// mixedSchedule lays out mixed-open's requests for dur.  Primary arrivals
// are a Poisson process conditioned on its count — rate·dur arrival
// times drawn uniformly and sorted — so every seed offers the same load.
// Each block of 24 primaries carries exactly 22 hot and 2 fresh
// requests, and the block's first fresh request is repeated within
// repeatWithin: 88% hot, 8% fresh, 4% repeats of the total.
func mixedSchedule(p params, seed uint64, dur time.Duration) []openReq {
	rng := rand.New(rand.NewPCG(seed, 0x0be7))
	hot := hotRequests(p)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	perm := rng.Perm(len(hot))
	const block, freshPerBlock = 24, 2
	arrivals := make([]time.Duration, int(openRate*dur.Seconds()*block/(block+1)))
	for i := range arrivals {
		arrivals[i] = time.Duration(rng.Int64N(int64(dur)))
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a] < arrivals[b] })
	classes := make([]int, 0, len(arrivals)+block)
	fresh := 0
	for len(classes) < len(arrivals) {
		blk := make([]int, block)
		for k := 0; k < freshPerBlock; k++ {
			blk[k] = classFresh
		}
		rng.Shuffle(block, func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
		classes = append(classes, blk...)
	}
	classes = classes[:len(arrivals)]
	for _, c := range classes {
		if c == classFresh {
			fresh++
		}
	}
	// The fresh keys' shapes are a fixed list — benchmarks and techniques
	// in turn, lengths spread evenly over FreshOps by a golden-ratio
	// sequence — that the seed only reorders, so the misses cost the same
	// in every run.
	shape := rng.Perm(fresh)

	var out []openReq
	repeated := false
	k := 0 // fresh keys so far
	for i, t := range arrivals {
		if i%block == 0 {
			repeated = false
		}
		if classes[i] == classHot {
			out = append(out, openReq{Due: t, Class: classHot, Req: hot[perm[zipf.Uint64()]]})
			continue
		}
		j := shape[k]
		r := p.Techniques[j%len(p.Techniques)]
		r.Benchmark = p.Benchmarks[j%len(p.Benchmarks)]
		u := math.Mod(0.5+float64(j)*(math.Sqrt(5)-1)/2, 1)
		total := p.FreshOps[0] + uint64(u*float64(p.FreshOps[1]-p.FreshOps[0]))
		r.WarmupOps, r.MeasureOps = total/3, total-total/3
		r.IntervalCycles = p.HotInterval + 1 + uint64(k) // unique: never seen before
		k++
		out = append(out, openReq{Due: t, Class: classFresh, Req: r})
		if !repeated {
			repeated = true
			lag := time.Duration(rng.Int64N(int64(repeatWithin)))
			out = append(out, openReq{Due: t + lag, Class: classRepeat, Req: r})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Due < out[b].Due })
	return out
}
