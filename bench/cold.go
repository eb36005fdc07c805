package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/frontendsim"
)

// coldSuite is one streamed suite: its shard lines with their arrival
// times, then the aggregate line.
type coldSuite struct {
	suite     frontendsim.SuiteRequest
	shards    [][]byte
	shardAt   []time.Duration
	aggregate []byte
	aggAt     time.Duration
	err       error
}

type coldRun struct {
	env
	gen    *coldGen
	suites []coldSuite
}

// coldShaSuites is how many leading suites results_sha256 covers.
const coldShaSuites = 16

// coldSampleEvery is the oracle's sampling rate of cold shards.
const coldSampleEvery = 8

func (c *coldRun) disk() bool { return false }

func (c *coldRun) prepare(context.Context, *fleet) error {
	c.gen = newColdGen(c.p, c.seed)
	return nil
}

func (c *coldRun) measure(ctx context.Context, f *fleet) (*phase, error) {
	p := &phase{}
	start := time.Now()
	for i := 0; time.Since(start) < c.dur; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.suites = append(c.suites, c.stream(ctx, f, c.gen.suite(i)))
	}
	p.elapsed = time.Since(start)
	return p, nil
}

func (c *coldRun) stream(ctx context.Context, f *fleet, s frontendsim.SuiteRequest) coldSuite {
	cs := coldSuite{suite: s}
	body, err := json.Marshal(s)
	if err != nil {
		cs.err = err
		return cs
	}
	t0 := time.Now()
	resp, done, err := c.post(ctx, f, "/v1/suites/stream", body)
	if err != nil {
		cs.err = err
		return cs
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cs.err = fmt.Errorf("status %d", resp.StatusCode)
		return cs
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		at := time.Since(t0)
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"shard"`)):
			cs.shards = append(cs.shards, line)
			cs.shardAt = append(cs.shardAt, at)
		case bytes.HasPrefix(line, []byte(`{"type":"aggregate"`)):
			cs.aggregate, cs.aggAt = line, at
		case len(bytes.TrimSpace(line)) > 0:
			cs.err = fmt.Errorf("stream line %.80q", line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			cs.err = err
			break
		}
	}
	if cs.err == nil && (cs.aggregate == nil || len(cs.shards) != len(s.Benchmarks)) {
		cs.err = fmt.Errorf("stream ended after %d shard lines", len(cs.shards))
	}
	return cs
}

// verify checks every suite's positions and aggregate against its own
// shard results, and a seeded 1-in-8 sample of shards against an
// in-process Engine.Run.
func (c *coldRun) verify(ctx context.Context, p *phase) error {
	eng := frontendsim.New()
	type check struct {
		suite, shard int
		req          frontendsim.Request
		raw          []byte
	}
	var sample []check
	var first, suiteLat []float64
	var cycles uint64
	h := sha256.New()
	p.suites = len(c.suites)
	for si, cs := range c.suites {
		n := len(cs.suite.Benchmarks)
		p.ops += n
		if si < coldShaSuites {
			h.Write(bytes.TrimSpace(cs.aggregate))
			p.shaOps = si + 1
		}
		if cs.err != nil {
			p.failed += n
			p.invalid = append(p.invalid, fmt.Sprintf("suite %d: %v", si, cs.err))
			continue
		}
		results := map[string]*frontendsim.Result{}
		seen := make([]bool, n)
		bad := ""
		for k, line := range cs.shards {
			var sl struct {
				Positions []int           `json:"positions"`
				Benchmark string          `json:"benchmark"`
				Result    json.RawMessage `json:"result"`
			}
			var res frontendsim.Result
			if err := json.Unmarshal(line, &sl); err != nil {
				bad = err.Error()
				break
			}
			if err := json.Unmarshal(sl.Result, &res); err != nil {
				bad = err.Error()
				break
			}
			for _, pos := range sl.Positions {
				if pos < 0 || pos >= n || seen[pos] || cs.suite.Benchmarks[pos] != sl.Benchmark {
					bad = fmt.Sprintf("shard %s at bad position %d", sl.Benchmark, pos)
				} else {
					seen[pos] = true
				}
			}
			results[sl.Benchmark] = &res
			cycles += res.WarmCycles + res.MeasCycles
			if p.sample == nil {
				p.sample = sl.Result
			}
			if sampled(c.seed, si, k) {
				req := cs.suite.Request
				req.Benchmark = sl.Benchmark
				sample = append(sample, check{si, k, req, sl.Result})
			}
		}
		if bad == "" {
			agg, err := eng.RunSuiteVia(ctx, cs.suite, func(_ context.Context, r frontendsim.Request) (*frontendsim.Result, error) {
				return results[r.Benchmark], nil
			})
			if err != nil {
				return err
			}
			want, err := json.Marshal(frontendsim.SuiteStreamLine{Type: "aggregate", Suite: agg})
			if err != nil {
				return err
			}
			if !bytes.Equal(want, bytes.TrimSpace(cs.aggregate)) {
				bad = "aggregate differs from its shard results"
			}
		}
		if bad != "" {
			p.failed += n
			p.invalid = append(p.invalid, fmt.Sprintf("suite %d: %s", si, bad))
			continue
		}
		for _, at := range cs.shardAt {
			p.lat = append(p.lat, ms(at))
		}
		first = append(first, ms(cs.shardAt[0]))
		suiteLat = append(suiteLat, ms(cs.aggAt))
	}
	p.sha = hex.EncodeToString(h.Sum(nil))

	reqs := make([]frontendsim.Request, len(sample))
	for i, s := range sample {
		reqs[i] = s.req
	}
	want, err := runAll(ctx, eng, reqs)
	if err != nil {
		return err
	}
	for i, s := range sample {
		if !bytes.Equal(want[i], s.raw) {
			p.failed++
			p.invalid = append(p.invalid, fmt.Sprintf("suite %d shard %d (%s) differs from Engine.Run", s.suite, s.shard, s.req.Benchmark))
		}
	}
	secs := p.elapsed.Seconds()
	p.notes = append(p.notes,
		pct("first_shard_ms", first, 50, "ms"), pct("suite_ms", suiteLat, 50, "ms"),
		metric{Name: "sim_mcycles_per_s", Value: float64(cycles) / 1e6 / secs, Unit: "Mcycles/s"},
		metric{Name: "oracle_shards", Value: float64(len(sample)), Unit: "count"})
	return nil
}

// sampled picks the oracle's seeded 1-in-coldSampleEvery sample.
func sampled(seed uint64, suite, shard int) bool {
	x := seed*0x9e3779b97f4a7c15 ^ uint64(suite)<<20 ^ uint64(shard)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x%coldSampleEvery == 0
}

// runAll runs reqs in-process on eng's worker count and returns each
// result as the JSON the services send (without the trailing newline).
func runAll(ctx context.Context, eng *frontendsim.Engine, reqs []frontendsim.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < eng.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				res, err := eng.Run(ctx, reqs[i])
				if err == nil {
					out[i], err = json.Marshal(res)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
