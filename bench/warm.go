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

type warmRun struct {
	env
	templates []frontendsim.SuiteRequest
	bodies    [][]byte // request bodies
	refs      [][]byte // reference response bodies, trimmed
	seq       *zipfSeq
	drawn     []int // template of each operation, in send order
}

// warmShaOps is how many leading operations results_sha256 covers.
const warmShaOps = 2000

func (w *warmRun) disk() bool { return false }

// prepare computes every template's keys through simsched, which fills
// the scheduler cache and the replica stores, and keeps each response
// as the reference.
func (w *warmRun) prepare(ctx context.Context, f *fleet) error {
	w.templates = warmTemplates(w.p)
	w.seq = newZipfSeq(w.seed, len(w.templates))
	for _, t := range w.templates {
		body, err := json.Marshal(t)
		if err != nil {
			return err
		}
		status, _, out, err := w.postRead(ctx, f, "/v1/suites", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("bench: prefill suite: status %d: %s", status, bytes.TrimSpace(out))
		}
		w.bodies = append(w.bodies, body)
		w.refs = append(w.refs, bytes.TrimSpace(out))
	}
	return nil
}

func (w *warmRun) measure(ctx context.Context, f *fleet) (*phase, error) {
	p := &phase{}
	type op struct {
		tmpl int
		lat  float64
		ok   bool
	}
	// Operations are numbered in send order, whatever the interleaving of
	// the clients; every number taken is completed.
	var (
		mu   sync.Mutex
		ops  = map[int]op{}
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < w.dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t := w.seq.at(i)
				t0 := time.Now()
				status, _, out, err := w.postRead(ctx, f, "/v1/suites", w.bodies[t])
				o := op{tmpl: t, lat: ms(time.Since(t0))}
				o.ok = err == nil && status == http.StatusOK && bytes.Equal(bytes.TrimSpace(out), w.refs[t])
				mu.Lock()
				ops[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < len(ops); i++ {
		o := ops[i]
		w.drawn = append(w.drawn, o.tmpl)
		p.ops++
		if !o.ok {
			p.failed++
			continue
		}
		p.lat = append(p.lat, o.lat)
	}
	p.suites = p.ops
	if p.failed > 0 {
		p.invalid = append(p.invalid, fmt.Sprintf("%d suites failed or differ from their reference", p.failed))
	}
	return p, nil
}

// verify fails the run if the replicas ran the engine while measuring,
// and cross-checks one template against a serial in-process RunSuite.
func (w *warmRun) verify(ctx context.Context, p *phase) error {
	p.notes = append(p.notes, metric{Name: "engine_runs", Value: float64(p.engineRuns), Unit: "count"})
	if p.engineRuns > 0 {
		p.invalid = append(p.invalid, fmt.Sprintf("replicas ran the engine %d times while measuring", p.engineRuns))
	}
	h := sha256.New()
	sums := map[int][]byte{}
	for i, t := range w.drawn {
		if i == warmShaOps {
			break
		}
		if sums[t] == nil {
			s := sha256.Sum256(w.refs[t])
			sums[t] = s[:]
		}
		h.Write(sums[t])
		p.shaOps = i + 1
	}
	p.sha = hex.EncodeToString(h.Sum(nil))

	k := int(w.seed % uint64(len(w.templates)))
	res, err := frontendsim.New(frontendsim.WithWorkers(1)).RunSuite(ctx, w.templates[k])
	if err != nil {
		return err
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, w.refs[k]) {
		p.failed++
		p.invalid = append(p.invalid, fmt.Sprintf("template %d differs from a serial Engine.RunSuite", k))
	}
	var one struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(w.refs[k], &one) == nil && len(one.Results) > 0 {
		p.sample = one.Results[0]
	}
	return nil
}
