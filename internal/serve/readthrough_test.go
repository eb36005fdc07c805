package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/resultstore"
)

// lateStore is a memory store whose counted Get never sees a key — as
// if every lookup ran just before the key was written — and whose
// uncounted Peek waits for gate: the flight's re-check then finds the
// key after every caller has joined the flight.
type lateStore struct {
	*resultstore.Memory
	gate <-chan struct{}
}

func (s lateStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return s.Memory.Get(ctx, "absent/"+key)
}

func (s lateStore) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	<-s.gate
	return s.Memory.Peek(ctx, key)
}

var errRefused = errors.New("refused entry")

// validate stands in for a typed decode: it refuses the body "bad" and
// decodes any other body to its upper-case spelling.
func validate(b []byte) (string, error) {
	if string(b) == "bad" {
		return "", errRefused
	}
	return strings.ToUpper(string(b)), nil
}

// TestReadThroughAccounting pins the one accounting rule both services
// serve by: a caller the store answered, before or inside a flight, is
// a HIT; a caller that joined a flight which computed is COALESCED; a
// failed share counts as neither; every caller makes one counted store
// lookup.  Each case runs callers concurrent Gets of one key (released
// together once every caller has missed the store), then the
// sequential Gets of then.
func TestReadThroughAccounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		held    string // the body stored before the first Get ("": none)
		late    bool   // lateStore: the key lands between lookup and re-check
		noStore bool   // no store at all
		fail    bool   // compute fails
		first   []string
		then    []string
		// computes, hits and coalesced are the totals after both
		// rounds; misses counts the store's counted misses, -1 for no
		// store.
		computes        int64
		hits, coalesced uint64
		misses          int
		wantHeld        string
	}{
		{name: "hit", held: "good", first: []string{"HIT"},
			hits: 1, misses: 0, wantHeld: "good"},
		{name: "miss", first: []string{"MISS"}, then: []string{"HIT"},
			computes: 1, hits: 1, misses: 1, wantHeld: "good"},
		{name: "concurrent misses", first: []string{"COALESCED", "COALESCED", "COALESCED", "MISS"},
			computes: 1, coalesced: 3, misses: 4, wantHeld: "good"},
		{name: "join answered by the re-check", held: "good", late: true, first: []string{"HIT", "HIT", "HIT", "HIT"},
			hits: 4, misses: 4, wantHeld: "good"},
		{name: "failed share", fail: true, first: []string{"COALESCED", "COALESCED", "COALESCED", "MISS"},
			computes: 1, misses: 4},
		{name: "refused entry", held: "bad", first: []string{"MISS"}, then: []string{"HIT", "HIT"},
			computes: 1, hits: 2, misses: 0, wantHeld: "good"},
		{name: "nil store", noStore: true, first: []string{"MISS"}, then: []string{"MISS"},
			computes: 2, misses: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			mem := resultstore.NewMemory(8)
			var store resultstore.Store = mem
			switch {
			case tc.noStore:
				store = nil
			case tc.late:
				store = lateStore{mem, gate}
			}
			if tc.held != "" {
				mem.Set(t.Context(), "k", []byte(tc.held))
			}
			var computes atomic.Int64
			rt := NewReadThrough(store, validate, func(ctx context.Context, key string, q string) ([]byte, string, error) {
				computes.Add(1)
				<-gate
				if tc.fail {
					return nil, "", errors.New("compute failed")
				}
				return []byte(q), strings.ToUpper(q), nil
			})

			get := func() (string, error) {
				body, val, src, err := rt.Get(t.Context(), "k", "good")
				if err == nil && (string(body) != "good" || val != "GOOD") {
					t.Errorf("%s: served %q, %q; want \"good\", \"GOOD\"", src, body, val)
				}
				return src.String(), err
			}
			sources := make([]string, len(tc.first))
			var wg sync.WaitGroup
			for i := range sources {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					sources[i], err = get()
					if (err != nil) != tc.fail {
						t.Errorf("caller %d: err = %v, want failure %v", i, err, tc.fail)
					}
				}()
			}
			if len(sources) > 1 {
				// Every caller has made its counted lookup once the store
				// counts its miss; give the last one time to reach the
				// flight, then let the flight finish.
				deadline := time.Now().Add(5 * time.Second)
				for mem.Stats()[0].Misses < uint64(len(sources)) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(100 * time.Millisecond)
			}
			close(gate)
			wg.Wait()
			for _, want := range tc.then {
				src, err := get()
				if err != nil || src != want {
					t.Errorf("then: %s, %v; want %s", src, err, want)
				}
			}

			slices.Sort(sources)
			if !slices.Equal(sources, tc.first) {
				t.Errorf("sources = %v, want %v", sources, tc.first)
			}
			if n := computes.Load(); n != tc.computes {
				t.Errorf("%d computes, want %d", n, tc.computes)
			}
			if rt.Hits() != tc.hits || rt.Coalesced() != tc.coalesced {
				t.Errorf("hits %d, coalesced %d; want %d, %d", rt.Hits(), rt.Coalesced(), tc.hits, tc.coalesced)
			}
			if tc.misses >= 0 {
				if got := mem.Stats()[0].Misses; got != uint64(tc.misses) {
					t.Errorf("store counted %d misses, want %d", got, tc.misses)
				}
				if held, _, _ := mem.Peek(t.Context(), "k"); string(held) != tc.wantHeld {
					t.Errorf("store holds %q, want %q", held, tc.wantHeld)
				}
			} else if rt.StoreStats() != nil {
				t.Errorf("StoreStats = %+v without a store, want nil", rt.StoreStats())
			}
		})
	}
}

// TestServeCacheStatsWithoutStore pins the stats shape of a disabled
// store: an empty tier list, not null.
func TestServeCacheStatsWithoutStore(t *testing.T) {
	rt := NewReadThrough[string, string](nil, nil, nil)
	w := httptest.NewRecorder()
	rt.ServeCacheStats(w, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	want := `{"entries":0,"hits":0,"misses":0,"coalesced":0,"tiers":[]}` + "\n"
	if got := w.Body.String(); got != want {
		t.Errorf("stats = %s, want %s", got, want)
	}
}
