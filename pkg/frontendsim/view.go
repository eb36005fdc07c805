package frontendsim

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/metrics"
)

// DecodeResult decodes an encoded Result in full with json.Unmarshal.
// The Result remembers data: the suite encoders (SuiteResult.AppendJSON,
// SuiteStreamLine.AppendJSON) write it as those bytes.  The caller must
// not modify data afterwards.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	r.body = data
	return &r, nil
}

// DecodeResultView decodes the aggregation view of an encoded Result:
// data is checked for JSON syntax, and only the six fields a suite
// aggregate folds (ipc, tc_hit_rate, meas_cycles, meas_ops, tc_hops and
// units) are decoded.  Like DecodeResult, the view remembers data, and
// Full decodes the rest.  Whenever json.Unmarshal into a Result accepts
// data, DecodeResultView accepts it with the same six values.  The
// caller must not modify data afterwards.
func DecodeResultView(data []byte) (*Result, error) {
	r := &Result{body: data, view: true}
	if !r.scanView(data) {
		var v resultView
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		r.IPC, r.MeasCycles, r.MeasOps = v.IPC, v.MeasCycles, v.MeasOps
		r.TCHitRate, r.TCHops, r.Units = v.TCHitRate, v.TCHops, v.Units
	}
	return r, nil
}

// Full returns the fully decoded Result: for a view (DecodeResultView),
// DecodeResult of its bytes; any other Result is returned as it is.
func (r *Result) Full() (*Result, error) {
	if !r.view {
		return r, nil
	}
	return DecodeResult(r.body)
}

// resultView holds the Result fields a suite aggregate folds.  Its tags
// match Result's, so encoding/json decodes the same six values from
// either.
type resultView struct {
	IPC        float64                   `json:"ipc"`
	MeasCycles uint64                    `json:"meas_cycles"`
	MeasOps    uint64                    `json:"meas_ops"`
	TCHitRate  float64                   `json:"tc_hit_rate"`
	TCHops     uint64                    `json:"tc_hops"`
	Units      map[string]metrics.Triple `json:"units"`
}

// viewKeys are the JSON names of the resultView fields.
var viewKeys = [...]string{"ipc", "meas_cycles", "meas_ops", "tc_hit_rate", "tc_hops", "units"}

// scanView checks the syntax of data and fills the view fields of r in
// one pass, which is less work than json.Valid alone.  It accepts the
// shape json.Marshal writes: an object whose view keys are spelled
// exactly and hold plain numbers, with units mapping plain triples.  It
// reports false on anything else — invalid JSON, a key that matches only
// case-insensitively, an escape or non-ASCII byte in a key, a null, a
// number that does not fit its field, deep nesting — and
// DecodeResultView then decodes with encoding/json, so such input
// decodes, or fails, exactly as json.Unmarshal has it.  Whatever it
// accepts, json.Valid accepts too.
func (r *Result) scanView(data []byte) bool {
	s := scanner{d: data}
	ok := s.object(func(key []byte) bool {
		if !plain(key) {
			return false
		}
		switch string(key) {
		case "ipc":
			return s.float(&r.IPC)
		case "tc_hit_rate":
			return s.float(&r.TCHitRate)
		case "meas_cycles":
			return s.uint(&r.MeasCycles)
		case "meas_ops":
			return s.uint(&r.MeasOps)
		case "tc_hops":
			return s.uint(&r.TCHops)
		case "units":
			return s.units(&r.Units)
		}
		for _, k := range viewKeys {
			if bytes.EqualFold(key, []byte(k)) {
				return false
			}
		}
		return s.value(1)
	})
	s.space()
	return ok && s.i == len(s.d)
}

// units reads a units object into *m, allocating it if nil and keeping
// entries already there, as encoding/json does for a repeated key.
// Each triple must spell its fields exactly.
func (s *scanner) units(m *map[string]metrics.Triple) bool {
	if *m == nil {
		*m = make(map[string]metrics.Triple, 8)
	}
	return s.object(func(name []byte) bool {
		var t metrics.Triple
		if !plain(name) || !s.object(func(field []byte) bool {
			switch string(field) {
			case "AbsMax":
				return s.float(&t.AbsMax)
			case "Average":
				return s.float(&t.Average)
			case "AvgMax":
				return s.float(&t.AvgMax)
			}
			return false
		}) {
			return false
		}
		(*m)[string(name)] = t
		return true
	})
}

// plain reports whether key has no escapes or non-ASCII bytes, whose
// unescaping and case folding scanView leaves to encoding/json.
func plain(key []byte) bool {
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// maxScanDepth bounds the nesting scanView checks itself; deeper input
// is left to encoding/json.
const maxScanDepth = 32

// scanner is a JSON syntax checker over d, reading from d[i].
type scanner struct {
	d []byte
	i int
}

func (s *scanner) space() {
	d, i := s.d, s.i
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	s.i = i
}

// accept consumes c if it is the next byte; next does so after
// whitespace.
func (s *scanner) accept(c byte) bool {
	if s.i < len(s.d) && s.d[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) next(c byte) bool {
	s.space()
	return s.accept(c)
}

// object consumes an object, calling member with each key; member
// consumes the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') || !member(key) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// value consumes one value nested depth deep.
func (s *scanner) value(depth int) bool {
	s.space()
	if s.i == len(s.d) {
		return false
	}
	switch s.d[s.i] {
	case '{':
		return depth < maxScanDepth && s.object(func([]byte) bool { return s.value(depth + 1) })
	case '[':
		if depth >= maxScanDepth {
			return false
		}
		s.i++
		if s.next(']') {
			return true
		}
		for s.value(depth + 1) {
			if !s.next(',') {
				return s.next(']')
			}
		}
		return false
	case '"':
		_, ok := s.str()
		return ok
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, ok := s.number()
	return ok
}

func (s *scanner) literal(lit string) bool {
	ok := bytes.HasPrefix(s.d[s.i:], []byte(lit))
	if ok {
		s.i += len(lit)
	}
	return ok
}

// str consumes a string and returns what lies between its quotes.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.d) {
		switch c := s.d[s.i]; {
		case c == '"':
			s.i++
			return s.d[start : s.i-1], true
		case c < 0x20:
			return nil, false
		case c == '\\':
			if !s.escape() {
				return nil, false
			}
		default:
			s.i++
		}
	}
	return nil, false
}

// escape consumes one escape sequence inside a string.
func (s *scanner) escape() bool {
	if s.i+1 >= len(s.d) {
		return false
	}
	switch s.d[s.i+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		s.i += 2
		return true
	case 'u':
		if s.i+6 > len(s.d) {
			return false
		}
		for _, c := range s.d[s.i+2 : s.i+6] {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return false
			}
		}
		s.i += 6
		return true
	}
	return false
}

// number consumes a number and returns it.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	start := s.i
	s.accept('-')
	if !s.accept('0') && s.digits() == 0 {
		return nil, false
	}
	if s.accept('.') && s.digits() == 0 {
		return nil, false
	}
	if s.accept('e') || s.accept('E') {
		if !s.accept('+') {
			s.accept('-')
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.d[start:s.i], true
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	d, i := s.d, s.i
	for i < len(d) && d[i]-'0' < 10 {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// float and uint read a number value as encoding/json does.
func (s *scanner) float(v *float64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

func (s *scanner) uint(v *uint64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	u, err := strconv.ParseUint(string(tok), 10, 64)
	*v = u
	return err == nil
}
