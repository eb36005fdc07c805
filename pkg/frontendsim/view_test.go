package frontendsim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// exported returns r's exported fields only, for comparisons that must
// not see what a Result remembers about its encoding.
func exported(r *Result) Result {
	c := *r
	c.raw, c.body, c.view = nil, nil, false
	return c
}

// FuzzDecodeView holds the view decoder to encoding/json: it never
// panics, it accepts exactly the bodies json.Unmarshal into a Result
// accepts, with the same six aggregation fields, and its full decode
// equals json.Unmarshal's.  Run `go test
// -fuzz FuzzDecodeView ./pkg/frontendsim` to hunt for longer.
func FuzzDecodeView(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden_*.jsonl"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("golden fixtures: %v (%d found)", err, len(fixtures))
	}
	for _, path := range fixtures {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, body, _ := bytes.Cut(blob, []byte("\n"))
		f.Add(body)
	}
	for _, seed := range []string{
		`null`, `{}`, ` {"ipc":1} `, `[]`, `"x"`, `{"ipc":1}x`, `{"ipc":1`,
		`{"ipc":-0.5e+3,"meas_cycles":18446744073709551615,"meas_ops":0,"tc_hops":7,"tc_hit_rate":1E-7}`,
		`{"meas_cycles":18446744073709551616}`, `{"meas_ops":-1}`, `{"tc_hops":1.0}`, `{"ipc":1e400}`,
		`{"ipc":01}`, `{"ipc":1.}`, `{"ipc":.5}`, `{"ipc":"1"}`, `{"ipc":null}`, `{"ipc":1,"ipc":null}`,
		`{"IPC":2}`, `{"Meas_Ops":3}`, `{"meaſ_ops":3}`, `{"\u0069pc":2}`, `{"ipc":1,"ipc":2}`,
		`{"units":null}`, `{"units":{}}`, `{"units":{"A":{}},"units":{"B":{"AbsMax":1}}}`,
		`{"units":{"A":{"AbsMax":1,"Average":2,"AvgMax":3},"A":{"Average":4}}}`,
		`{"units":{"A":{"absmax":1}}}`, `{"units":{"A":{"Other":1}}}`, `{"units":{"\u00e9":{}}}`,
		`{"units":{"é":{"AbsMax":1}}}`, `{"units":{"A":null}}`, `{"units":[1]}`,
		`{"blocks":["a\"b","\\","\u00e9\ud800"],"config":{"TC":{"Hopping":true}},"ipc":0.25}`,
		`{"blocks":5,"ipc":1}`, `{"x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
		`{"x":"tab	in string"}`, `{"x":"\x"}`, `{"x":"\u12"}`, `{"x":tru}`, `{"x":nul}`, "{\"x\":1}\n",
		`{"config":{"Clusters":4.5}}`, `{"config":{"TC":{"Hopping":0}}}`, `{"benchmark":7}`, `{"warm_cycles":-1}`,
		`{"avg_power_w":[1e400]}`, `{"avg_power_w":[1.7976931348623157e308,-1e-400,null]}`, `{"avg_power_w":[18e307]}`,
		`{"warm_cycles":-0}`, `{"intervals":-0,"dtm_min_duty":9223372036854775807}`, `{"intervals":9223372036854775808}`,
		`{"intervals":1e2}`, `{"config":{"BPredBits":18446744073709551616}}`, `{"config":{"clusters":4}}`,
		`{"config":{"TC":{"BiasDegreesPerHalving":1E309}}}`, `{"config":{"Cluster":null,"TC":{"Biased":null}}}`,
		`{"blocks":["a",1]}`, `{"blocks":{}}`, `{"config":[]}`, `{"units":{"A":{"AbsMax":"1"}}}`, `{"benchmark":"x","Benchmark":"y"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		view, viewErr := DecodeResultView(data)
		var full Result
		if err := json.Unmarshal(data, &full); err != nil {
			if viewErr == nil {
				t.Fatalf("view accepted %q, which json.Unmarshal rejects: %v", data, err)
			}
			return
		}
		if viewErr != nil {
			t.Fatalf("view rejected %q, which json.Unmarshal accepts: %v", data, viewErr)
		}
		if view.IPC != full.IPC || view.TCHitRate != full.TCHitRate || view.MeasCycles != full.MeasCycles ||
			view.MeasOps != full.MeasOps || view.TCHops != full.TCHops || !reflect.DeepEqual(view.Units, full.Units) {
			t.Fatalf("view of %q = %+v, want the fields of %+v", data, exported(view), full)
		}
		got, err := view.Full()
		if err != nil {
			t.Fatalf("full decode of view of %q: %v", data, err)
		}
		if !reflect.DeepEqual(exported(got), full) {
			t.Fatalf("full decode of view of %q = %+v, want %+v", data, exported(got), full)
		}
	})
}

// randResult builds a Result with random contents, including strings
// encoding/json must escape and nil/empty slices and maps.
func randResult(rng *rand.Rand) *Result {
	str := func() string {
		const alphabet = `abcXYZ_-<>&"\/é` + "\n\t\u2028\x01"
		runes := []rune(alphabet)
		b := make([]rune, rng.Intn(8))
		for i := range b {
			b[i] = runes[rng.Intn(len(runes))]
		}
		return string(b)
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return -rng.ExpFloat64() * 1e-300
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	floats := func() []float64 {
		if rng.Intn(4) == 0 {
			return nil
		}
		v := make([]float64, rng.Intn(5))
		for i := range v {
			v[i] = float()
		}
		return v
	}
	r := &Result{
		Benchmark:      str(),
		IPC:            float(),
		WarmCycles:     rng.Uint64(),
		MeasCycles:     rng.Uint64(),
		MeasOps:        uint64(rng.Intn(1e6)),
		Intervals:      rng.Intn(10),
		TCHitRate:      float(),
		TCHops:         rng.Uint64() >> rng.Intn(64),
		AmbientC:       float(),
		AvgPowerW:      floats(),
		NominalW:       floats(),
		PeakRiseC:      floats(),
		DTMEngagements: uint64(rng.Intn(3)),
		DTMMinDuty:     rng.Intn(3),
	}
	r.Config.Clusters, r.Config.TC.Hopping = rng.Intn(8), rng.Intn(2) == 0
	if rng.Intn(4) != 0 {
		r.Units = map[string]metrics.Triple{}
		for i := rng.Intn(8); i > 0; i-- {
			r.Units[str()] = metrics.Triple{AbsMax: float(), Average: float(), AvgMax: float()}
		}
	}
	if rng.Intn(4) != 0 {
		r.Blocks = []string{}
		for i := rng.Intn(4); i > 0; i-- {
			r.Blocks = append(r.Blocks, str())
		}
	}
	return r
}

// encodedAs returns r in one of the forms a suite carries: as built, or
// decoded — in full or as a view — from json.Marshal's bytes, from those
// bytes plus the newline simd stores, or from indented bytes.  The
// second result is the fully decoded form json.Marshal must agree with.
func encodedAs(t *testing.T, rng *rand.Rand, r *Result) (*Result, *Result) {
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	switch rng.Intn(3) {
	case 1:
		body = append(body, '\n')
	case 2:
		if body, err = json.MarshalIndent(r, "", "  "); err != nil {
			t.Fatal(err)
		}
	}
	decode := DecodeResult
	switch rng.Intn(3) {
	case 0:
		return r, r
	case 1:
		decode = DecodeResultView
	}
	got, err := decode(body)
	if err != nil {
		t.Fatal(err)
	}
	full, err := got.Full()
	if err != nil {
		t.Fatal(err)
	}
	return got, full
}

// randSuite builds a suite of mixed result forms: nil positions (failed
// shards of a partial run), duplicate positions sharing one pointer, and
// errors or none.  It returns the suite and its fully decoded twin.
func randSuite(t *testing.T, rng *rand.Rand) (*SuiteResult, *SuiteResult) {
	n := rng.Intn(7)
	got := &SuiteResult{Results: make([]*Result, n)}
	want := &SuiteResult{Results: make([]*Result, n)}
	if n == 0 && rng.Intn(2) == 0 {
		got.Results, want.Results = nil, nil
	}
	for i := 0; i < n; i++ {
		switch {
		case rng.Intn(5) == 0:
			// A failed shard.
		case i > 0 && rng.Intn(4) == 0:
			j := rng.Intn(i)
			got.Results[i], want.Results[i] = got.Results[j], want.Results[j]
		default:
			got.Results[i], want.Results[i] = encodedAs(t, rng, randResult(rng))
		}
	}
	if rng.Intn(2) == 0 {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			got.Errors = append(got.Errors, ShardError{Positions: []int{rng.Intn(9), 9}, Benchmark: "b<&>", Err: "boom \"x\""})
		}
	}
	got.Aggregate = aggregate(want.Results)
	want.Errors, want.Aggregate = got.Errors, got.Aggregate
	return got, want
}

// checkEncoding asserts that appendJSON writes what json.Marshal(want)
// does, and WriteLine what json.Encoder does.
func checkEncoding(t *testing.T, appendJSON func([]byte) ([]byte, error), want any) {
	t.Helper()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendJSON([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), wantJSON...)) {
		t.Fatalf("AppendJSON:\n got %s\nwant prefix%s", got, wantJSON)
	}
	var gotLine, wantLine bytes.Buffer
	if err := WriteLine(&gotLine, appendJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&wantLine).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLine.Bytes(), wantLine.Bytes()) {
		t.Fatalf("WriteLine:\n got %q\nwant %q", gotLine.Bytes(), wantLine.Bytes())
	}
}

// TestAppendJSONMatchesMarshal is a seeded property test: the suite
// encoders write exactly the bytes encoding/json writes for the fully
// decoded suite, for blocking results and every stream line type.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		got, want := randSuite(t, rng)
		checkEncoding(t, got.AppendJSON, want)

		res, wantRes := encodedAs(t, rng, randResult(rng))
		positions := []int{rng.Intn(4), 4 + rng.Intn(4)}[:rng.Intn(3)]
		lines := []struct{ got, want SuiteStreamLine }{
			{ShardResult{Positions: positions, Benchmark: "gzip", Source: "HIT", Result: res}.Line(),
				ShardResult{Positions: positions, Benchmark: "gzip", Source: "HIT", Result: wantRes}.Line()},
			{ShardResult{Positions: positions, Benchmark: "mcf<", Result: res}.Line(),
				ShardResult{Positions: positions, Benchmark: "mcf<", Result: wantRes}.Line()},
			{ShardResult{Positions: positions, Benchmark: "swim", Err: "dead & gone"}.Line(),
				ShardResult{Positions: positions, Benchmark: "swim", Err: "dead & gone"}.Line()},
			{SuiteStreamLine{Type: "aggregate", Suite: got}, SuiteStreamLine{Type: "aggregate", Suite: want}},
			{SuiteStreamLine{Type: "error", Error: strings.Repeat("é\"", i%3)}, SuiteStreamLine{Type: "error", Error: strings.Repeat("é\"", i%3)}},
		}
		for _, l := range lines {
			checkEncoding(t, l.got.AppendJSON, l.want)
		}
	}
}

// TestAppendJSONEncodingError checks that an unencodable result fails
// the encoding and WriteLine writes nothing, as json.Encoder does.
func TestAppendJSONEncodingError(t *testing.T) {
	suite := &SuiteResult{Results: []*Result{{IPC: math.NaN()}}}
	if _, err := suite.AppendJSON(nil); err == nil {
		t.Fatal("AppendJSON encoded a NaN")
	}
	var buf bytes.Buffer
	if err := WriteLine(&buf, suite.AppendJSON); err == nil || buf.Len() != 0 {
		t.Fatalf("WriteLine = %v after writing %q, want an error and nothing written", err, buf.Bytes())
	}
}

// TestScanViewTakesMarshalShape checks that stored result bodies — what
// json.Marshal writes, with or without simd's trailing newline — decode
// on the one-pass path rather than through encoding/json.
func TestScanViewTakesMarshalShape(t *testing.T) {
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "golden_*.jsonl"))
	for _, path := range fixtures {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := bytes.Cut(blob, []byte("\n"))
		for _, data := range [][]byte{bytes.TrimSpace(body), body} {
			var r Result
			if !r.scanView(data) {
				t.Errorf("%s: scanView fell back on a json.Marshal body", path)
			}
		}
	}
}
