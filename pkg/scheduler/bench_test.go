package scheduler

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// BenchmarkSchedulerDispatch measures the pure dispatch overhead per
// request with zero simulation cost, the distributed-tier counterpart
// of BenchmarkSimulatorThroughput.  Three stub backends serve one real
// result body, run and encoded once as simd stores it, so every row
// pays for checking a full-size result.  The rows rotate over distinct
// keys, so the ring, not one backend's socket, is exercised:
//
//	go_api  Dispatch: canonical-key hashing, ring lookup, HTTP round
//	        trip, the view check of the body and its full decode (Full)
//	miss    what the HTTP handlers pay on a store miss: the same round
//	        trip and view check, and no full decode
//	hit     what the HTTP handlers pay on a store hit: key hashing, the
//	        store lookup and the view check of the stored body
func BenchmarkSchedulerDispatch(b *testing.B) {
	res, err := frontendsim.New(frontendsim.WithWarmupOps(30_000), frontendsim.WithMeasureOps(60_000)).
		Run(context.Background(), frontendsim.Request{Benchmark: "gzip"})
	if err != nil {
		b.Fatal(err)
	}
	canned, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	canned = append(canned, '\n')
	var nodes []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(canned)
		}))
		defer srv.Close()
		nodes = append(nodes, srv.URL)
	}
	newSched := func(cache resultstore.Store) *Scheduler {
		sched, err := New(frontendsim.New(), Config{Backends: nodes, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		return sched
	}
	benches := frontendsim.Benchmarks()
	ctx := context.Background()
	run := func(b *testing.B, serve func(frontendsim.Request) error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := serve(frontendsim.Request{Benchmark: benches[i%len(benches)]}); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("go_api", func(b *testing.B) {
		sched := newSched(nil)
		run(b, func(req frontendsim.Request) error {
			_, err := sched.Dispatch(ctx, req)
			return err
		})
	})
	b.Run("miss", func(b *testing.B) {
		sched := newSched(nil)
		run(b, func(req frontendsim.Request) error {
			_, _, _, err := sched.serve(ctx, req)
			return err
		})
	})
	b.Run("hit", func(b *testing.B) {
		sched := newSched(resultstore.NewMemory(len(benches)))
		for _, bench := range benches {
			if _, _, _, err := sched.serve(ctx, frontendsim.Request{Benchmark: bench}); err != nil {
				b.Fatal(err)
			}
		}
		run(b, func(req frontendsim.Request) error {
			_, _, src, err := sched.serve(ctx, req)
			if err == nil && src != SourceCached {
				b.Fatalf("%s served %v, want a store hit", req.Benchmark, src)
			}
			return err
		})
	})
}
