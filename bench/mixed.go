package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/frontendsim"
)

type mixedRun struct {
	env
	hot     []frontendsim.Request
	hotRefs map[string][]byte // by request body
	sched   []openReq
	bodies  [][]byte // request bodies, by schedule index
	answers []answer // responses, by schedule index
}

type answer struct {
	status int
	xcache string
	body   []byte
	err    error
}

// Latency limits of mixed-open's slo_ratio.
const (
	hitLimitMs  = 5
	missLimitMs = 250
)

func (m *mixedRun) disk() bool { return true }

// prepare computes every hot key through simsched (filling the scheduler
// cache and the replica stores), keeps each response as the reference,
// and lays out the schedule.
func (m *mixedRun) prepare(ctx context.Context, f *fleet) error {
	m.hot = hotRequests(m.p)
	m.hotRefs = map[string][]byte{}
	bodies := make([][]byte, len(m.hot))
	for i, r := range m.hot {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	answers := make([]answer, len(m.hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				a := &answers[i]
				a.status, a.xcache, a.body, a.err = m.postRead(ctx, f, "/v1/simulations", bodies[i])
			}
		}()
	}
	wg.Wait()
	for i, a := range answers {
		if a.err != nil {
			return a.err
		}
		if a.status != http.StatusOK {
			return fmt.Errorf("bench: prefill: status %d: %s", a.status, bytes.TrimSpace(a.body))
		}
		m.hotRefs[string(bodies[i])] = bytes.TrimSpace(a.body)
	}
	m.sched = mixedSchedule(m.p, m.seed, m.dur)
	m.bodies = make([][]byte, len(m.sched))
	for i, r := range m.sched {
		b, err := json.Marshal(r.Req)
		if err != nil {
			return err
		}
		m.bodies[i] = b
	}
	return nil
}

func (m *mixedRun) measure(ctx context.Context, f *fleet) (*phase, error) {
	p := &phase{}
	dues := make([]time.Duration, len(m.sched))
	for i, r := range m.sched {
		dues[i] = r.Due
	}
	m.answers = make([]answer, len(m.sched))
	start := time.Now()
	samples := openLoop(ctx, dues, clientConns, newWallClock(), func(ctx context.Context, i int) {
		a := &m.answers[i]
		a.status, a.xcache, a.body, a.err = m.postRead(ctx, f, "/v1/simulations", m.bodies[i])
	})
	p.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var hit, miss []float64
	met := 0
	for i, s := range samples {
		r, a := m.sched[i], m.answers[i]
		p.ops++
		lat := ms(s.latency())
		if s.waited {
			p.late = append(p.late, ms(s.start-s.due))
		}
		if r.Class == classRepeat {
			p.repeats++
		}
		if a.xcache == "COALESCED" {
			p.joins++
		}
		ok := a.err == nil && a.status == http.StatusOK
		if ok && r.Class == classHot {
			ok = bytes.Equal(bytes.TrimSpace(a.body), m.hotRefs[string(m.bodies[i])])
		}
		if !ok {
			p.failed++
			continue
		}
		p.lat = append(p.lat, lat)
		limit := float64(missLimitMs)
		if r.Class == classHot {
			hit = append(hit, lat)
			limit = hitLimitMs
		} else {
			miss = append(miss, lat)
		}
		if lat <= limit {
			met++
		}
	}
	if p.failed > 0 {
		p.invalid = append(p.invalid, fmt.Sprintf("%d requests failed or differ from their reference", p.failed))
	}
	p.notes = append(p.notes,
		pct("hit_ms", hit, 50, "ms"), pct("hit_ms", hit, 99, "ms"),
		pct("miss_ms", miss, 50, "ms"), pct("miss_ms", miss, 90, "ms"),
		metric{Name: "slo_ratio", Value: ratio(met, p.ops), Unit: "fraction"},
		pct("late_ms", p.late, 99, "ms"),
		metric{Name: "joins", Value: float64(p.joins), Unit: "count"},
		metric{Name: "repeats", Value: float64(p.repeats), Unit: "count"})
	return p, nil
}

// verify recomputes every fresh key in-process and checks both its first
// answer and its repeat, cross-checks a seeded sample of the hot
// references, and hashes every answer in send order.
func (m *mixedRun) verify(ctx context.Context, p *phase) error {
	h := sha256.New()
	for i, a := range m.answers {
		h.Write(bytes.TrimSpace(a.body))
		h.Write([]byte{'\n'})
		p.shaOps = i + 1
	}
	p.sha = hex.EncodeToString(h.Sum(nil))

	index := map[string]int{}
	var reqs []frontendsim.Request
	for i, r := range m.sched {
		if r.Class == classHot {
			continue
		}
		if _, ok := index[string(m.bodies[i])]; !ok {
			index[string(m.bodies[i])] = len(reqs)
			reqs = append(reqs, r.Req)
		}
	}
	hotAt := len(reqs)
	for i := int(m.seed % 8); i < len(m.hot); i += 8 {
		reqs = append(reqs, m.hot[i])
	}
	want, err := runAll(ctx, frontendsim.New(), reqs)
	if err != nil {
		return err
	}
	for i, r := range m.sched {
		a := m.answers[i]
		if r.Class == classHot || a.err != nil || a.status != http.StatusOK {
			continue
		}
		if !bytes.Equal(bytes.TrimSpace(a.body), want[index[string(m.bodies[i])]]) {
			p.failed++
			p.invalid = append(p.invalid, fmt.Sprintf("request %d (%s) differs from Engine.Run", i, r.Req.Benchmark))
		}
	}
	for k, i := hotAt, int(m.seed%8); i < len(m.hot); k, i = k+1, i+8 {
		b, err := json.Marshal(m.hot[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(m.hotRefs[string(b)], want[k]) {
			p.failed++
			p.invalid = append(p.invalid, fmt.Sprintf("hot key %d differs from Engine.Run", i))
		}
	}
	if len(want) > 0 {
		p.sample = want[len(want)-1]
	}
	return nil
}

// ---------------------------------------------------------------------
// open loop

// clock is the open loop's time source: the wall clock, or a stub in
// tests.
type clock interface {
	now() time.Duration // since the loop started
	sleepUntil(ctx context.Context, t time.Duration)
}

type wallClock struct{ t0 time.Time }

func newWallClock() *wallClock { return &wallClock{t0: time.Now()} }

func (c *wallClock) now() time.Duration { return time.Since(c.t0) }

func (c *wallClock) sleepUntil(ctx context.Context, t time.Duration) {
	d := t - c.now()
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// openSample is one open-loop request's timeline.
type openSample struct {
	due, start, done time.Duration
	// waited is set when a worker was idle and slept until due; start-due
	// is then the generator's own lateness.  Otherwise the request queued
	// behind busy workers, and that wait is part of its latency.
	waited bool
}

// latency is measured from the due time, so time spent waiting for a
// busy connection counts.
func (s openSample) latency() time.Duration { return s.done - s.due }

// openLoop sends request i at dues[i] (ascending) over conns workers,
// whatever the state of earlier requests: a request due while every
// worker is busy waits for the first one free.
func openLoop(ctx context.Context, dues []time.Duration, conns int, clk clock, send func(ctx context.Context, i int)) []openSample {
	samples := make([]openSample, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(dues) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				s := &samples[i]
				s.due = dues[i]
				if clk.now() < s.due {
					clk.sleepUntil(ctx, s.due)
					s.waited = true
				}
				s.start = clk.now()
				send(ctx, i)
				s.done = clk.now()
			}
		}()
	}
	wg.Wait()
	return samples
}
