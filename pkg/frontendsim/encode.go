package frontendsim

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// AppendJSON appends the JSON encoding of s to b: the bytes
// json.Marshal(s) returns, except that each Result decoded from bytes
// (DecodeResult, DecodeResultView) is written as those bytes, without
// surrounding whitespace, however its fields were changed since.  For
// bytes json.Marshal wrote, which is every result body simd stores, the
// two agree byte for byte.
func (s *SuiteResult) AppendJSON(b []byte) ([]byte, error) {
	e := appender{b: b}
	e.raw(`{"results":`)
	if s.Results == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, r := range s.Results {
			if i > 0 {
				e.raw(",")
			}
			e.result(r)
		}
		e.raw("]")
	}
	if len(s.Errors) > 0 {
		e.raw(`,"errors":`)
		e.marshal(s.Errors)
	}
	e.raw(`,"aggregate":`)
	e.marshal(&s.Aggregate)
	e.raw("}")
	return e.b, e.err
}

// AppendJSON appends the JSON encoding of l to b: the bytes
// json.Marshal(l) returns, with l.Result and the results of l.Suite
// written as SuiteResult.AppendJSON writes them.
func (l SuiteStreamLine) AppendJSON(b []byte) ([]byte, error) {
	e := appender{b: b}
	e.raw(`{"type":`)
	e.marshal(l.Type)
	if len(l.Positions) > 0 {
		e.raw(`,"positions":`)
		e.marshal(l.Positions)
	}
	if l.Benchmark != "" {
		e.raw(`,"benchmark":`)
		e.marshal(l.Benchmark)
	}
	if l.Source != "" {
		e.raw(`,"source":`)
		e.marshal(l.Source)
	}
	if l.Result != nil {
		e.raw(`,"result":`)
		e.result(l.Result)
	}
	if l.Suite != nil && e.err == nil {
		e.raw(`,"suite":`)
		e.b, e.err = l.Suite.AppendJSON(e.b)
	}
	if l.Error != "" {
		e.raw(`,"error":`)
		e.marshal(l.Error)
	}
	e.raw("}")
	return e.b, e.err
}

// appender builds an encoding, keeping the first error.
type appender struct {
	b   []byte
	err error
}

func (e *appender) raw(s string) { e.b = append(e.b, s...) }

func (e *appender) marshal(v any) {
	if e.err != nil {
		return
	}
	var m []byte
	m, e.err = json.Marshal(v)
	e.b = append(e.b, m...)
}

// result writes a decoded Result as its bytes and any other Result
// through json.Marshal.  Bytes that span lines are compacted, so they
// never split an NDJSON line.
func (e *appender) result(r *Result) {
	if r == nil || r.body == nil {
		e.marshal(r)
		return
	}
	body := bytes.TrimSpace(r.body)
	if bytes.IndexByte(body, '\n') < 0 {
		e.b = append(e.b, body...)
		return
	}
	buf := bytes.NewBuffer(e.b)
	if err := json.Compact(buf, body); err != nil && e.err == nil {
		e.err = err
	}
	e.b = buf.Bytes()
}

// lineBufs recycles WriteLine's encoding buffers.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteLine writes what appendJSON (SuiteResult.AppendJSON or
// SuiteStreamLine.AppendJSON) appends, plus a newline, to w in one
// Write — the bytes json.NewEncoder(w).Encode writes.  On an encoding
// error nothing is written.
func WriteLine(w io.Writer, appendJSON func([]byte) ([]byte, error)) error {
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	b, err := appendJSON((*bp)[:0])
	if err != nil {
		return err
	}
	*bp = append(b, '\n')
	_, err = w.Write(*bp)
	return err
}
