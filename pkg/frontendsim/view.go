package frontendsim

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

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
// data is checked in one pass, and only the six fields a suite aggregate
// folds (ipc, tc_hit_rate, meas_cycles, meas_ops, tc_hops and units) are
// decoded.  It accepts exactly the bodies json.Unmarshal into a Result
// accepts, with the same six values, so it validates bytes from another
// process as strictly as DecodeResult does.  Like DecodeResult, the view
// remembers data, and Full decodes the rest.  The caller must not modify
// data afterwards.
func DecodeResultView(data []byte) (*Result, error) {
	r := &Result{body: data, view: true}
	if !r.scanView(data) {
		return DecodeResult(data)
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

// scanView checks data against Result's JSON type and fills the view
// fields of r in one pass, which is less work than json.Valid alone.  It
// accepts the shape json.Marshal writes: an object whose keys are
// spelled exactly and whose values have the JSON type each field needs
// (resultType), with units mapping plain triples.  It reports false on
// anything else — invalid JSON, a value json.Unmarshal would refuse, a
// key that matches only case-insensitively, an escape or non-ASCII byte
// in a key, a null in a view field, deep nesting — and DecodeResultView
// then decodes with encoding/json, so such input decodes, or fails,
// exactly as json.Unmarshal has it.  Whatever it accepts, json.Unmarshal
// into a Result accepts too.
func (r *Result) scanView(data []byte) bool {
	s := scanner{d: data}
	next := 0
	ok := s.object(func(key []byte) bool {
		f, ok := resultType.member(key, &next)
		if !ok || f == nil || f.view == nil {
			return ok && s.field(f, 1)
		}
		switch v := f.view(r).(type) {
		case *float64:
			return s.float(v)
		case *uint64:
			return s.uint(v)
		case *map[string]metrics.Triple:
			return s.units(v)
		}
		return false
	})
	s.space()
	return ok && s.i == len(s.d)
}

// resultType is Result's JSON type, with the six fields a suite
// aggregate folds bound to the Result fields scanView decodes them into.
var resultType = func() *jsonType {
	t := typeOf(reflect.TypeFor[Result](), map[reflect.Type]*jsonType{})
	views := map[string]func(*Result) any{
		"IPC":        func(r *Result) any { return &r.IPC },
		"TCHitRate":  func(r *Result) any { return &r.TCHitRate },
		"MeasCycles": func(r *Result) any { return &r.MeasCycles },
		"MeasOps":    func(r *Result) any { return &r.MeasOps },
		"TCHops":     func(r *Result) any { return &r.TCHops },
		"Units":      func(r *Result) any { return &r.Units },
	}
	for i := range t.fields {
		f := &t.fields[i]
		if view, ok := views[f.goName]; ok {
			f.view = view
			delete(views, f.goName)
		}
	}
	for name := range views {
		panic("frontendsim: Result has no JSON field " + name + " for the view")
	}
	return t
}()

// jsonKind is the JSON value a jsonType takes.
type jsonKind uint8

const (
	// kindOther is a Go type scanView leaves to encoding/json: one that
	// decodes itself (json.Unmarshaler), a pointer, an interface, a
	// []byte, a struct with embedded fields or ",string" options.
	kindOther jsonKind = iota
	kindString
	kindBool
	kindInt
	kindUint
	kindFloat
	kindArray  // a slice
	kindObject // a map with string keys
	kindStruct
)

// jsonType is what json.Unmarshal needs of a JSON value to decode it
// into one Go type without error, derived from the type by reflection.
type jsonType struct {
	kind jsonKind
	// bits is the size of a number type.  limit bounds the numbers that
	// obviously fit it: integers of at most limit digits, and floats
	// below 10^limit.
	bits, limit int
	// elem is the element type of an array or object.
	elem *jsonType
	// fields are a struct's members, in declaration order, and index
	// maps their names to their positions.
	fields []jsonField
	index  map[string]int
}

// jsonField is one member of a struct type.
type jsonField struct {
	name   string // the key json.Marshal writes
	goName string
	typ    *jsonType
	// view returns where scanView decodes the member of a Result; nil
	// outside the view.
	view func(*Result) any
}

var (
	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// typeOf derives the jsonType of t, memoized in seen.
func typeOf(t reflect.Type, seen map[reflect.Type]*jsonType) *jsonType {
	if jt, ok := seen[t]; ok {
		return jt
	}
	jt := &jsonType{}
	seen[t] = jt
	if p := reflect.PointerTo(t); p.Implements(unmarshalerType) || p.Implements(textUnmarshalerType) {
		return jt
	}
	switch t.Kind() {
	case reflect.String:
		jt.kind = kindString
	case reflect.Bool:
		jt.kind = kindBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		jt.kind, jt.bits = kindInt, t.Bits()
		jt.limit = len(strconv.FormatInt(math.MaxInt64>>(64-jt.bits), 10)) - 1
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		jt.kind, jt.bits = kindUint, t.Bits()
		jt.limit = len(strconv.FormatUint(math.MaxUint64>>(64-jt.bits), 10)) - 1
	case reflect.Float32, reflect.Float64:
		jt.kind, jt.bits, jt.limit = kindFloat, t.Bits(), 308
		if jt.bits == 32 {
			jt.limit = 38
		}
	case reflect.Slice:
		if t.Elem().Kind() != reflect.Uint8 { // []byte is a base64 string
			jt.kind, jt.elem = kindArray, typeOf(t.Elem(), seen)
		}
	case reflect.Map:
		if k := t.Key(); k.Kind() == reflect.String && !reflect.PointerTo(k).Implements(textUnmarshalerType) {
			jt.kind, jt.elem = kindObject, typeOf(t.Elem(), seen)
		}
	case reflect.Struct:
		structOf(jt, t, seen)
	}
	return jt
}

// structOf fills jt with the members of struct type t, as encoding/json
// names them, or leaves it kindOther.
func structOf(jt *jsonType, t reflect.Type, seen map[reflect.Type]*jsonType) {
	var fields []jsonField
	index := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if slices.Contains(strings.Split(opts, ","), "string") {
			return
		}
		if name == "" {
			name = sf.Name
		}
		if _, dup := index[name]; dup {
			return
		}
		index[name] = len(fields)
		fields = append(fields, jsonField{name: name, goName: sf.Name, typ: typeOf(sf.Type, seen)})
	}
	jt.kind, jt.fields, jt.index = kindStruct, fields, index
}

// member looks up an object key of struct type t: the field it names
// exactly, or nil for a key json.Unmarshal ignores.  ok is false for a
// key scanView leaves to encoding/json — one with an escape or a
// non-ASCII byte, or one that matches a field only case-insensitively.
// json.Marshal writes the fields in order, so the one after the
// previous match, *next, is tried before the index.
func (t *jsonType) member(key []byte, next *int) (f *jsonField, ok bool) {
	i := *next
	ok = i < len(t.fields) && t.fields[i].name == string(key)
	if !ok {
		i, ok = t.index[string(key)]
	}
	if ok {
		*next = i + 1
		return &t.fields[i], true
	}
	if !plain(key) {
		return nil, false
	}
	for i := range t.fields {
		if strings.EqualFold(string(key), t.fields[i].name) {
			return nil, false
		}
	}
	return nil, true
}

// field consumes the value of member f nested depth deep; a nil f is an
// ignored key, whose value only has to be valid JSON.
func (s *scanner) field(f *jsonField, depth int) bool {
	if f == nil {
		return s.value(depth)
	}
	return s.check(f.typ, depth)
}

// check consumes one value nested depth deep and reports whether
// json.Unmarshal decodes it into type t without error.
func (s *scanner) check(t *jsonType, depth int) bool {
	s.space()
	if t.kind == kindOther || s.i == len(s.d) || depth > maxScanDepth {
		return false
	}
	c := s.d[s.i]
	if c == 'n' {
		// null leaves any field as it is (or nil).
		return s.literal("null")
	}
	switch t.kind {
	case kindString:
		_, ok := s.str()
		return ok
	case kindBool:
		return c == 't' && s.literal("true") || c == 'f' && s.literal("false")
	case kindInt, kindUint, kindFloat:
		var n num
		return s.number(&n) && n.fits(t)
	case kindArray:
		return s.array(func() bool { return s.check(t.elem, depth+1) })
	case kindObject:
		return s.object(func([]byte) bool { return s.check(t.elem, depth+1) })
	}
	next := 0
	return s.object(func(key []byte) bool {
		f, ok := t.member(key, &next)
		return ok && s.field(f, depth+1)
	})
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
	for i < len(d) && d[i] <= ' ' && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
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

// array consumes an array, calling elem for each element; elem
// consumes the element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for elem() {
		if !s.next(',') {
			return s.next(']')
		}
	}
	return false
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
		return depth < maxScanDepth && s.array(func() bool { return s.value(depth + 1) })
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
	var n num
	return s.number(&n)
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
	for {
		d, i := s.d, s.i
		for i < len(d) && d[i] != '"' && d[i] != '\\' && d[i] >= 0x20 {
			i++
		}
		s.i = i
		switch {
		case i == len(d) || d[i] < 0x20:
			return nil, false
		case d[i] == '"':
			s.i++
			return d[start:i], true
		}
		if !s.escape() {
			return nil, false
		}
	}
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

// num is a number token with what number learnt of its size on the
// way: whether it is negative, how many digits its integer part has,
// whether it has a fraction or an exponent, and the exponent's value
// (clamped to ±maxExp10, which no float reaches).
type num struct {
	tok       []byte
	neg       bool
	intDigits int
	frac, exp bool
	exp10     int
}

const maxExp10 = 9999

// number consumes a number into n; s.d[s.i] is its first byte.
func (s *scanner) number(n *num) bool {
	d, i := s.d, s.i
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	if i < len(d) && d[i] == '0' {
		n.intDigits = 1
		i++
	} else if n.intDigits = skipDigits(d, i) - i; n.intDigits == 0 {
		return false
	} else {
		i += n.intDigits
	}
	if i < len(d) && d[i] == '.' {
		n.frac = true
		from := i + 1
		if i = skipDigits(d, from); i == from {
			return false
		}
	}
	if i < len(d) && d[i]|0x20 == 'e' {
		n.exp = true
		i++
		neg := i < len(d) && d[i] == '-'
		if neg || i < len(d) && d[i] == '+' {
			i++
		}
		from := i
		if i = skipDigits(d, from); i == from {
			return false
		}
		for _, c := range d[from:i] {
			n.exp10 = min(n.exp10*10+int(c-'0'), maxExp10)
		}
		if neg {
			n.exp10 = -n.exp10
		}
	}
	n.tok, s.i = d[s.i:i], i
	return true
}

// fits reports whether json.Unmarshal stores n in a field of number type
// t without error.  strconv decides only the numbers near t's limits.
func (n *num) fits(t *jsonType) bool {
	if t.kind == kindFloat {
		if n.intDigits+n.exp10 <= t.limit {
			return true
		}
		_, err := strconv.ParseFloat(string(n.tok), t.bits)
		return err == nil
	}
	if n.frac || n.exp || n.neg && t.kind == kindUint {
		return false
	}
	if n.intDigits <= t.limit {
		return true
	}
	var err error
	if t.kind == kindInt {
		_, err = strconv.ParseInt(string(n.tok), 10, t.bits)
	} else {
		_, err = strconv.ParseUint(string(n.tok), 10, t.bits)
	}
	return err == nil
}

// skipDigits returns the index of the first byte at or after d[i] that
// is not a decimal digit.
func skipDigits(d []byte, i int) int {
	for i < len(d) && d[i]-'0' < 10 {
		i++
	}
	return i
}

// uint64Type is the jsonType of the view's integer fields.
var uint64Type = typeOf(reflect.TypeFor[uint64](), map[reflect.Type]*jsonType{})

// float and uint read a number value as encoding/json does.
func (s *scanner) float(v *float64) bool {
	var n num
	s.space()
	if !s.number(&n) {
		return false
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	*v = f
	return err == nil
}

func (s *scanner) uint(v *uint64) bool {
	var n num
	s.space()
	if !s.number(&n) || !n.fits(uint64Type) {
		return false
	}
	var u uint64
	for _, c := range n.tok {
		u = u*10 + uint64(c-'0')
	}
	*v = u
	return true
}
