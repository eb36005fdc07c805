package frontendsim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeRequest decodes request JSON the way simd does: unknown fields
// are errors.
func decodeRequest(data []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzRequestKey checks that a request's canonical key survives a JSON
// round trip: decode, key, re-encode, decode and key again must give
// the same key, or both key steps must reject the request.  Run
// `go test -fuzz FuzzRequestKey ./pkg/frontendsim` to hunt for longer.
func FuzzRequestKey(f *testing.F) {
	for _, req := range goldenRequests() {
		seed, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"benchmark":"gzip","frontends":2,"bank_hopping":true}`))
	f.Add([]byte(`{"benchmark":"mcf","config":{"Frontends":2},"dtm":true}`))
	eng := New()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		key, keyErr := eng.RequestKey(req)
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		again, err := decodeRequest(encoded)
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", encoded, err)
		}
		key2, keyErr2 := eng.RequestKey(again)
		if (keyErr == nil) != (keyErr2 == nil) {
			t.Fatalf("key error changed across the round trip: %v, then %v (%s)", keyErr, keyErr2, encoded)
		}
		if key != key2 {
			t.Fatalf("key changed across the round trip: %s, then %s (%s)", key, key2, encoded)
		}
	})
}
