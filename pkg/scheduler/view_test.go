package scheduler

import (
	"context"
	"reflect"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// sameExported reports whether a and b agree on every exported field.
func sameExported(a, b *frontendsim.Result) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestGoAPIReturnsFullResults checks that no aggregation view escapes
// the Go API: RunSuite, the RunSuiteStream sink and Dispatch return
// Results equal, field for exported field, to Engine.RunSuite's — on
// the dispatching run and on the repeat the scheduler store answers.
// Duplicate suite entries still share one *Result.
func TestGoAPIReturnsFullResults(t *testing.T) {
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: urls(newBackends(t, 2)),
		Cache:    resultstore.NewMemory(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip", "mcf", "gzip", "swim"}}
	ctx := context.Background()
	ref, err := frontendsim.New(testOpts()...).RunSuite(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	check := func(run, what string, pos int, got *frontendsim.Result) {
		t.Helper()
		if got == nil || !sameExported(got, ref.Results[pos]) {
			t.Errorf("%s run: %s at position %d = %+v, want %+v", run, what, pos, got, ref.Results[pos])
		}
	}
	for _, run := range []string{"dispatching", "cached"} {
		res, err := sched.RunSuite(ctx, suite)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Results {
			check(run, "RunSuite", i, r)
		}
		if res.Results[0] != res.Results[2] {
			t.Errorf("%s run: duplicate suite entries do not share one result", run)
		}

		streamed, _, err := sched.RunSuiteStream(ctx, suite, func(sh frontendsim.ShardResult) {
			for _, p := range sh.Positions {
				check(run, "RunSuiteStream sink", p, sh.Result)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range streamed.Results {
			check(run, "RunSuiteStream", i, r)
		}

		for i, req := range suite.Requests() {
			r, err := sched.Dispatch(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			check(run, "Dispatch", i, r)
		}
	}
	if st := sched.Stats(); st.CacheHits == 0 {
		t.Errorf("stats = %+v: the store answered nothing", st)
	}
}
