package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/resultstore"
)

// spanHeader carries "<trace>-<span>" (hex) across an HTTP hop so the
// receiving middleware can parent its span on the sender's.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer.  Start and End are nanoseconds
// since the tracer started.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
	Source string `json:"source,omitempty"`
	Host   string `json:"host,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef identifies a span as a parent.
type spanRef struct{ trace, id uint64 }

func (r spanRef) String() string { return fmt.Sprintf("%x-%x", r.trace, r.id) }

// parseSpanRef reads a spanHeader value; an absent or malformed one is
// the zero ref, which starts a new trace.
func parseSpanRef(s string) spanRef {
	a, b, _ := strings.Cut(s, "-")
	t, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{t, id}
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// tracer records spans in memory; write dumps them when the run ends.
// The wrappers below are installed only in the traced run, around the
// calls into each layer's public API, so the untraced run measures the
// fleet exactly as the commands build it.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// child allocates a span under parent (a new trace when parent is zero).
func (t *tracer) child(parent spanRef) (ref spanRef, parentID uint64) {
	id := t.nextID.Add(1)
	if parent.trace == 0 {
		return spanRef{trace: id, id: id}, 0
	}
	return spanRef{trace: parent.trace, id: id}, parent.id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// maxWrittenSpans bounds the trace file; metrics use every span.
const maxWrittenSpans = 200_000

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	out := struct {
		Spans     []span `json:"spans"`
		Total     int    `json:"total"`
		Truncated bool   `json:"truncated,omitempty"`
	}{Spans: spans, Total: len(spans)}
	if len(spans) > maxWrittenSpans {
		out.Spans, out.Truncated = spans[:maxWrittenSpans], true
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler times every request next serves.  The span's parent comes
// from the caller's spanHeader; the X-Cache response header becomes its
// source.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, pid := t.child(parseSpanRef(r.Header.Get(spanHeader)))
		start := t.now()
		next.ServeHTTP(&flushWriter{w}, r.WithContext(withSpan(r.Context(), ref)))
		t.record(span{Trace: ref.trace, ID: ref.id, Parent: pid, Name: name,
			Start: start, End: t.now(), Key: r.URL.Path, Source: w.Header().Get("X-Cache")})
	})
}

// flushWriter keeps http.Flusher visible through the middleware: the
// NDJSON endpoints flush per line.
type flushWriter struct{ http.ResponseWriter }

func (w *flushWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *flushWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport times each backend round trip from send to the close of the
// response body, and forwards the span to the backend in spanHeader.
func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ref, pid := t.child(spanFrom(req.Context()))
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, ref.String())
		s := span{Trace: ref.trace, ID: ref.id, Parent: pid, Name: "scheduler.rtt", Start: t.now(), Host: req.URL.Host}
		resp, err := next.RoundTrip(req)
		if err != nil {
			s.End, s.Source = t.now(), "ERROR"
			t.record(s)
			return nil, err
		}
		s.Source = resp.Header.Get("X-Cache")
		resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
			s.End = t.now()
			t.record(s)
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// store wraps a result store so every Get and Set is a span named
// name+".get" / name+".set" with source "hit" or "miss" on Gets.
func (t *tracer) store(name string, inner resultstore.Store) *timedStore {
	return &timedStore{inner: inner, t: t, get: name + ".get", set: name + ".set"}
}

// timedStore times a Store's Get and Set.  It forwards the optional
// Peeker and Scanner capabilities with the semantics the inner store has,
// so the wrapped servers take the same paths and report the same stats.
type timedStore struct {
	inner    resultstore.Store
	t        *tracer
	get, set string
}

func (s *timedStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	ref, pid := s.t.child(spanFrom(ctx))
	start := s.t.now()
	v, ok, err := s.inner.Get(ctx, key)
	src := "miss"
	switch {
	case err != nil:
		src = "error"
	case ok:
		src = "hit"
	}
	s.t.record(span{Trace: ref.trace, ID: ref.id, Parent: pid, Name: s.get, Start: start, End: s.t.now(), Key: key, Source: src})
	return v, ok, err
}

func (s *timedStore) Set(ctx context.Context, key string, val []byte) error {
	ref, pid := s.t.child(spanFrom(ctx))
	start := s.t.now()
	err := s.inner.Set(ctx, key, val)
	s.t.record(span{Trace: ref.trace, ID: ref.id, Parent: pid, Name: s.set, Start: start, End: s.t.now(), Key: key})
	return err
}

// Peek reads without touching the counters, falling back to a counted
// Get when the inner store cannot peek — exactly what resultstore.Peek
// does on the unwrapped store.
func (s *timedStore) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	return resultstore.Peek(ctx, s.inner, key)
}

// Keys enumerates the inner store's keys, reporting the capability
// absent when the inner store has none.
func (s *timedStore) Keys(ctx context.Context, filter func(string) bool) ([]string, error) {
	keys, _, err := resultstore.ScanKeys(ctx, s.inner, filter)
	return keys, err
}

func (s *timedStore) Stats() []resultstore.TierStats { return s.inner.Stats() }
func (s *timedStore) Close() error                   { return s.inner.Close() }

// selfTimes returns, for each span named parentName, its duration minus
// the union of its children named childName.
func selfTimes(spans []span, parentName, childName string) []time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Name == childName {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, p := range spans {
		if p.Name != parentName {
			continue
		}
		out = append(out, p.dur()-time.Duration(covered(p.Start, p.End, children[p.ID])))
	}
	return out
}

// covered returns how much of [lo, hi) the spans cover.
func covered(lo, hi int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
