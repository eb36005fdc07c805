package scheduler

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/frontendsim"
)

// BenchmarkSchedulerDispatch measures the pure dispatch overhead per
// request — canonical-key hashing, ring lookup, HTTP round trip to a
// stub backend and result decode — with zero simulation cost, the
// distributed-tier counterpart of BenchmarkSimulatorThroughput.  The
// stub serves one real result body, run and encoded once as simd
// stores it, so the row pays for decoding a full-size result.
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
	sched, err := New(frontendsim.New(), Config{Backends: nodes})
	if err != nil {
		b.Fatal(err)
	}

	// Rotate over distinct keys so the ring, not one backend's socket, is
	// exercised.
	benches := frontendsim.Benchmarks()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Dispatch(ctx, frontendsim.Request{Benchmark: benches[i%len(benches)]}); err != nil {
			b.Fatal(err)
		}
	}
}
