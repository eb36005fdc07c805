package simd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// storeServer is a simd server over an explicit memory store, with the
// engine unused by the store-plane endpoints.
func storeServer(t *testing.T) (*Server, resultstore.Store) {
	t.Helper()
	store := resultstore.NewMemory(64)
	t.Cleanup(func() { store.Close() })
	eng, _ := countingEngine(nil)
	return NewServerWithStore(eng, store), store
}

// TestStoreEntryPutGetRoundTrip: an entry put into the store is served
// by GET /v1/store/entries/{key} as the stored bytes verbatim.
func TestStoreEntryPutGetRoundTrip(t *testing.T) {
	srv, store := storeServer(t)
	body := `{"benchmark":"gzip","meas_cycles":123}` + "\n"
	if err := store.Set(context.Background(), "key-1", []byte(body)); err != nil {
		t.Fatal(err)
	}
	w := get(t, srv, "/v1/store/entries/key-1")
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d", w.Code)
	}
	if w.Body.String() != body {
		t.Fatalf("entry body = %q, want the stored bytes verbatim %q", w.Body.String(), body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestStoreEntryErrors pins the entry route's refusals, and that the
// store plane is read-only: a PUT of an entry answers 405.
func TestStoreEntryErrors(t *testing.T) {
	srv, store := storeServer(t)
	if w := get(t, srv, "/v1/store/entries/absent"); w.Code != http.StatusNotFound {
		t.Errorf("GET absent = %d, want 404", w.Code)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/store/entries/k", strings.NewReader(`{"v":1}`)))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT = %d, want 405", w.Code)
	}
	if _, ok, _ := resultstore.Peek(context.Background(), store, "k"); ok {
		t.Error("a refused PUT stored its body")
	}
	long := strings.Repeat("k", maxStoreKeyLen+1)
	if w := get(t, srv, "/v1/store/entries/"+long); w.Code != http.StatusBadRequest {
		t.Errorf("GET oversized key = %d, want 400", w.Code)
	}
}

// TestStoreEntryReadsInvisible pins that repair reads are Peeks: pulling
// an entry moves neither the hit nor the miss counter.
func TestStoreEntryReadsInvisible(t *testing.T) {
	srv, store := storeServer(t)
	if err := store.Set(context.Background(), "key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/store/entries/key")
	get(t, srv, "/v1/store/entries/missing")
	_, hits, misses := resultstore.Totals(store.Stats())
	if hits != 0 || misses != 0 {
		t.Fatalf("repair reads moved counters: hits=%d misses=%d", hits, misses)
	}
}

func TestStoreKeysEndpoint(t *testing.T) {
	srv, store := storeServer(t)
	want := []string{"alpha", "beta", "gamma"}
	for _, k := range want {
		if err := store.Set(context.Background(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w := get(t, srv, "/v1/store/keys")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var body storeKeysResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 3 || !reflect.DeepEqual(body.Keys, want) {
		t.Fatalf("keys = %+v, want sorted %v", body, want)
	}

	// Bucket selection: the union over all buckets is the full key set,
	// and each key appears in exactly its own bucket.
	const buckets = 4
	seen := map[string]int{}
	for b := 0; b < buckets; b++ {
		var part storeKeysResponse
		w := get(t, srv, "/v1/store/keys?bucket="+string(rune('0'+b))+"&buckets=4")
		if w.Code != http.StatusOK {
			t.Fatalf("bucket %d: status %d", b, w.Code)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &part); err != nil {
			t.Fatal(err)
		}
		for _, k := range part.Keys {
			seen[k]++
			if got := resultstore.BucketOf(k, buckets); got != b {
				t.Errorf("key %q served in bucket %d, hashes to %d", k, b, got)
			}
		}
	}
	for _, k := range want {
		if seen[k] != 1 {
			t.Errorf("key %q appeared in %d buckets", k, seen[k])
		}
	}

	for _, bad := range []string{
		"/v1/store/keys?bucket=0",            // buckets missing
		"/v1/store/keys?buckets=4",           // bucket missing
		"/v1/store/keys?bucket=4&buckets=4",  // out of range
		"/v1/store/keys?bucket=-1&buckets=4", // negative
		"/v1/store/keys?bucket=x&buckets=4",  // unparseable
	} {
		if w := get(t, srv, bad); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
		}
	}
}

func TestStoreDigestEndpoint(t *testing.T) {
	srv, store := storeServer(t)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if err := store.Set(context.Background(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w := get(t, srv, "/v1/store/digest?buckets=8")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var body storeDigestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Buckets != 8 || body.Count != 4 {
		t.Fatalf("digest header = %+v", body)
	}
	if want := resultstore.BucketDigests(keys, 8); !reflect.DeepEqual(body.Digests, want) {
		t.Fatalf("digests = %v, want %v", body.Digests, want)
	}
	for _, bad := range []string{"/v1/store/digest?buckets=0", "/v1/store/digest?buckets=5000", "/v1/store/digest?buckets=x"} {
		if w := get(t, srv, bad); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, w.Code)
		}
	}
}

// bareStore hides its inner store's Keys: a Store without the Scanner
// capability.
type bareStore struct{ resultstore.Store }

// TestStoreScanEndpointsUnsupported pins the capability-absent contract:
// a replica whose store cannot enumerate answers 501 for enumeration and
// digests (a warming peer falls back to a replica that can enumerate)
// while entry GET still works.
func TestStoreScanEndpointsUnsupported(t *testing.T) {
	store := bareStore{resultstore.NewMemory(16)}
	srv := NewServerWithStore(frontendsim.New(), store)
	if w := get(t, srv, "/v1/store/keys"); w.Code != http.StatusNotImplemented {
		t.Errorf("keys = %d, want 501", w.Code)
	}
	if w := get(t, srv, "/v1/store/digest"); w.Code != http.StatusNotImplemented {
		t.Errorf("digest = %d, want 501", w.Code)
	}
	if err := store.Set(context.Background(), "k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if w := get(t, srv, "/v1/store/entries/k"); w.Code != http.StatusOK || w.Body.String() != `{"v":1}` {
		t.Errorf("GET = %d %q", w.Code, w.Body.String())
	}
}
