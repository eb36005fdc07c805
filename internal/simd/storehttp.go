package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/pkg/resultstore"
)

// Store plane: the response store exposed read-only over HTTP so peers
// can repair each other.  GET /v1/store/keys and /v1/store/digest
// require the store's optional Scanner capability (501 without it —
// every store OpenStack builds can enumerate, but a caller-supplied
// Store need not, and a converging peer falls back to a replica that
// can); GET /v1/store/entries/{key} works against any store.  The
// anti-entropy client in this package is the intended consumer, but
// the endpoints are plain HTTP: an operator can inspect a store with
// curl.  Nothing writes through the plane: a replica's store holds only
// what its own engine computed or its anti-entropy pulled.

// maxStoreKeyLen bounds the key path element of /v1/store/entries —
// canonical request keys are short hex strings, so anything longer is a
// caller bug, not a store concern.
const maxStoreKeyLen = 512

// storeKeyError validates a key from the URL path.
func storeKeyError(key string) error {
	if key == "" {
		return errors.New("simd: empty store key")
	}
	if len(key) > maxStoreKeyLen {
		return fmt.Errorf("simd: store key length %d exceeds %d", len(key), maxStoreKeyLen)
	}
	return nil
}

// bucketFilter parses the optional bucket=i&buckets=n selection of
// /v1/store/keys.  Both present: a fixed hash-space slice filter; both
// absent: nil (every key); anything else is a request error.
func bucketFilter(r *http.Request) (func(string) bool, error) {
	bucketStr, bucketsStr := r.URL.Query().Get("bucket"), r.URL.Query().Get("buckets")
	if bucketStr == "" && bucketsStr == "" {
		return nil, nil
	}
	bucket, err := strconv.Atoi(bucketStr)
	if err != nil {
		return nil, fmt.Errorf("simd: bad bucket %q", bucketStr)
	}
	buckets, err := strconv.Atoi(bucketsStr)
	if err != nil {
		return nil, fmt.Errorf("simd: bad buckets %q", bucketsStr)
	}
	if buckets < 1 || bucket < 0 || bucket >= buckets {
		return nil, fmt.Errorf("simd: bucket %d out of range [0, %d)", bucket, buckets)
	}
	return func(key string) bool { return resultstore.BucketOf(key, buckets) == bucket }, nil
}

// storeKeysResponse is the GET /v1/store/keys body.
type storeKeysResponse struct {
	Count int      `json:"count"`
	Keys  []string `json:"keys"`
}

// handleStoreKeys enumerates the store's live key set, optionally
// restricted to one fixed hash-space bucket (bucket=i&buckets=n).  501
// when the store cannot enumerate (no Scanner capability).
func (s *Server) handleStoreKeys(w http.ResponseWriter, r *http.Request) {
	filter, err := bucketFilter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	keys, ok, err := resultstore.ScanKeys(r.Context(), s.store, filter)
	if !ok {
		writeError(w, http.StatusNotImplemented, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	resultstore.SortKeys(keys)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(storeKeysResponse{Count: len(keys), Keys: keys})
}

// storeDigestResponse is the GET /v1/store/digest body: the live key
// count plus one order-independent digest per fixed hash-space bucket.
type storeDigestResponse struct {
	Buckets int                  `json:"buckets"`
	Count   int                  `json:"count"`
	Digests []resultstore.Digest `json:"digests"`
}

// maxDigestBuckets bounds the buckets query parameter.
const maxDigestBuckets = 4096

// handleStoreDigest reports the per-bucket key-set digests anti-entropy
// exchanges.  501 when the store cannot enumerate.
func (s *Server) handleStoreDigest(w http.ResponseWriter, r *http.Request) {
	buckets := resultstore.DefaultDigestBuckets
	if v := r.URL.Query().Get("buckets"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxDigestBuckets {
			writeError(w, http.StatusBadRequest, fmt.Errorf("simd: bad buckets %q", v))
			return
		}
		buckets = n
	}
	keys, ok, err := resultstore.ScanKeys(r.Context(), s.store, nil)
	if !ok {
		writeError(w, http.StatusNotImplemented, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(storeDigestResponse{
		Buckets: buckets,
		Count:   len(keys),
		Digests: resultstore.BucketDigests(keys, buckets),
	})
}

// handleStoreGetEntry serves one stored response body verbatim.  The
// read is a Peek: repair traffic stays out of the hit/miss counters and
// does not disturb LRU recency.
func (s *Server) handleStoreGetEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := storeKeyError(key); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, ok, err := resultstore.Peek(r.Context(), s.store, key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no stored entry for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
