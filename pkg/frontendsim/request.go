package frontendsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Request describes one simulation: which benchmark to run and on which
// processor configuration.  The zero value plus a Benchmark name runs the
// paper's baseline (Table 1).  Request marshals to/from JSON, so it can
// be posted to the cmd/simd HTTP service unchanged.
type Request struct {
	// Benchmark names one of the 26 SPEC2000 profiles (see Benchmarks).
	Benchmark string `json:"benchmark"`

	// Config overrides the full processor configuration when non-nil.
	// When nil, the paper baseline (core.DefaultConfig) is used and the
	// technique toggles below are applied on top of it.
	Config *core.Config `json:"config,omitempty"`

	// Technique toggles, mirroring the paper's evaluated configurations.
	// They apply on top of Config (or the baseline when Config is nil).

	// Frontends > 1 enables the §3.1 distributed rename and commit over
	// that many frontend partitions (the paper evaluates 2).
	Frontends int `json:"frontends,omitempty"`
	// BankHopping enables the §3.2.1 rotating Vdd-gated extra bank.
	BankHopping bool `json:"bank_hopping,omitempty"`
	// BiasedMapping enables the §3.2.2 thermal-aware mapping function.
	BiasedMapping bool `json:"biased_mapping,omitempty"`
	// BlankSilicon enables the Figure 13 comparison point (one extra,
	// statically gated bank).  Mutually exclusive with BankHopping.
	BlankSilicon bool `json:"blank_silicon,omitempty"`
	// DTM enables the fetch-toggling thermal-emergency controller with
	// its default 381 K tuning for this run.
	DTM bool `json:"dtm,omitempty"`

	// Per-run overrides of the Engine's simulation lengths (0 = use the
	// Engine default).
	WarmupOps      uint64 `json:"warmup_ops,omitempty"`
	MeasureOps     uint64 `json:"measure_ops,omitempty"`
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
}

// EffectiveConfig resolves the processor configuration the request runs:
// Config (or the baseline) with the technique toggles applied.
func (r Request) EffectiveConfig() core.Config {
	cfg := core.DefaultConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	if r.Frontends > 1 {
		cfg = cfg.WithDistributedFrontend(r.Frontends)
	}
	if r.BankHopping {
		cfg = cfg.WithBankHopping()
	}
	if r.BiasedMapping {
		cfg = cfg.WithBiasedMapping()
	}
	if r.BlankSilicon {
		cfg = cfg.WithBlankSilicon()
	}
	return cfg
}

// Validate checks the request without running it.  It reports unknown
// benchmarks (previously a panic deep inside internal/experiments),
// contradictory technique toggles, and inconsistent processor
// configurations.
func (r Request) Validate() error {
	if err := validateBenchmark(r.Benchmark); err != nil {
		return err
	}
	return r.validateTemplate()
}

// validateBenchmark checks one benchmark name: the benchmark half of
// Validate.
func validateBenchmark(name string) error {
	if name == "" {
		return fmt.Errorf("frontendsim: request has no benchmark (available: %s)",
			strings.Join(workload.Names(), " "))
	}
	if _, ok := workload.ByName(name); !ok {
		return fmt.Errorf("frontendsim: unknown benchmark %q (available: %s)",
			name, strings.Join(workload.Names(), " "))
	}
	return nil
}

// validateTemplate checks everything Validate checks except the
// benchmark name, so a suite validates its shared template once.
func (r Request) validateTemplate() error {
	if r.BankHopping && r.BlankSilicon {
		return fmt.Errorf("frontendsim: bank_hopping and blank_silicon are mutually exclusive")
	}
	if r.Frontends < 0 {
		return fmt.Errorf("frontendsim: frontends must be >= 0, got %d", r.Frontends)
	}
	if err := r.EffectiveConfig().Validate(); err != nil {
		return fmt.Errorf("frontendsim: invalid configuration: %w", err)
	}
	return nil
}

// profile resolves the workload profile; Validate must have passed.
func (r Request) profile() workload.Profile {
	p, _ := workload.ByName(r.Benchmark)
	return p
}

// canonicalRequest is the fully resolved form a request hashes as: the
// effective configuration and effective simulation lengths, independent
// of how the caller spelled them (Config vs. toggles, engine defaults
// vs. explicit overrides).  Two requests that would produce identical
// results produce identical canonical forms.
type canonicalRequest struct {
	Benchmark       string           `json:"benchmark"`
	Config          core.Config      `json:"config"`
	WarmupOps       uint64           `json:"warmup_ops"`
	MeasureOps      uint64           `json:"measure_ops"`
	IntervalCycles  uint64           `json:"interval_cycles"`
	IntervalSeconds float64          `json:"interval_seconds"`
	Thermal         *thermal.Params  `json:"thermal,omitempty"`
	Power           *power.Constants `json:"power,omitempty"`
	DTM             *dtm.Config      `json:"dtm,omitempty"`
}

// RequestKey returns the canonical cache key of a request under this
// Engine's defaults: a hex SHA-256 of the resolved benchmark,
// configuration and simulation lengths (Thanos query-frontend style —
// the key identifies the response, not the request spelling).
func (e *Engine) RequestKey(req Request) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	b, err := e.canonicalJSON(req)
	if err != nil {
		return "", err
	}
	return hashKey(b), nil
}

// hashKey renders the key of a canonical encoding: its hex SHA-256,
// encoded on the stack so the string is the only allocation.
func hashKey(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// canonicalJSON encodes req's canonical form, the bytes its key hashes.
func (e *Engine) canonicalJSON(req Request) ([]byte, error) {
	opt := e.options(req)
	// The overrides hash by value, not presence: two engines (or a DTM
	// request toggle vs. a WithDTM default) with different controller or
	// model tunings must never share a cache entry.
	canon := canonicalRequest{
		Benchmark:       req.Benchmark,
		Config:          req.EffectiveConfig(),
		WarmupOps:       opt.WarmupOps,
		MeasureOps:      opt.MeasureOps,
		IntervalCycles:  opt.IntervalCycles,
		IntervalSeconds: opt.IntervalSeconds,
		Thermal:         opt.Thermal,
		Power:           opt.Power,
		DTM:             opt.DTM,
	}
	// encoding/json emits struct fields in declaration order, so the
	// encoding is canonical for a fixed struct shape.
	b, err := json.Marshal(canon)
	if err != nil {
		return nil, fmt.Errorf("frontendsim: canonicalize request: %w", err)
	}
	return b, nil
}

// benchmarkField opens every canonical encoding; the benchmark name's
// JSON string follows it.
const benchmarkField = `{"benchmark":`

// keyTemplate is the canonical encoding of one request template with
// the benchmark left out.  The benchmark is canonicalRequest's first
// field and the rest of the encoding does not depend on it, so the key
// of the template run on any benchmark hashes benchmarkField, the
// name's JSON string and tail: the bytes RequestKey hashes.  A suite
// encodes its template once and derives every position's key from it.
type keyTemplate struct {
	tail []byte // the encoding after the benchmark's value
	buf  []byte // scratch for one key's encoding
}

// newKeyTemplate encodes tmpl's canonical form; tmpl's Benchmark is
// ignored and tmpl must pass validateTemplate.
func (e *Engine) newKeyTemplate(tmpl Request) (keyTemplate, error) {
	tmpl.Benchmark = ""
	b, err := e.canonicalJSON(tmpl)
	if err != nil {
		return keyTemplate{}, err
	}
	head := benchmarkField + `""`
	if !bytes.HasPrefix(b, []byte(head)) {
		return keyTemplate{}, fmt.Errorf("frontendsim: canonical encoding does not open with %s", head)
	}
	tail := b[len(head):]
	return keyTemplate{tail: tail, buf: make([]byte, 0, len(benchmarkField)+32+len(tail))}, nil
}

// key returns the canonical key of the template run on benchmark name.
// It reuses the template's scratch, so one keyTemplate serves one
// goroutine.
func (kt *keyTemplate) key(name string) string {
	b := append(kt.buf[:0], benchmarkField...)
	b = appendJSONString(b, name)
	b = append(b, kt.tail...)
	kt.buf = b
	return hashKey(b)
}

// appendJSONString appends s as json.Marshal encodes a string.  Names
// of printable ASCII with nothing to escape are copied between quotes;
// anything else goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Benchmarks returns the names of all available benchmark profiles,
// sorted.
func Benchmarks() []string {
	names := workload.Names()
	sort.Strings(names)
	return names
}
