package frontendsim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenBodies returns the result bodies of the golden fixtures, each as
// simd stores it (json.Marshal's bytes plus a newline), by fixture name.
func goldenBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden_*.jsonl"))
	if err != nil || len(fixtures) == 0 {
		tb.Fatalf("golden fixtures: %v (%d found)", err, len(fixtures))
	}
	bodies := map[string][]byte{}
	for _, path := range fixtures {
		blob, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		_, body, _ := bytes.Cut(blob, []byte("\n"))
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "golden_"), ".jsonl")
		bodies[name] = body
	}
	return bodies
}

// benchmarkDecode runs decode over each golden body in a sub-benchmark.
func benchmarkDecode(b *testing.B, decode func([]byte) (*Result, error)) {
	for name, body := range goldenBodies(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeResultView measures the one-pass typed view scan, what
// a scheduler pays to validate a backend body or a store hit.
func BenchmarkDecodeResultView(b *testing.B) { benchmarkDecode(b, DecodeResultView) }

// BenchmarkDecodeResult measures the full encoding/json decode, what the
// Go API's Full pays on top of the view.
func BenchmarkDecodeResult(b *testing.B) { benchmarkDecode(b, DecodeResult) }
