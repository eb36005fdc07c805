// Package core assembles the full clustered processor of the paper
// (Figure 2): one or more frontend partitions (trace cache, decode,
// rename, steer) feeding four backend clusters over point-to-point links,
// with a shared UL2 and the bus fabric of Table 1.
//
// The package implements both organizations evaluated in the paper:
//
//   - the baseline with a monolithic rename table and reorder buffer
//     (Config.Frontends == 1), and
//   - the proposed distributed frontend (§3.1) where N frontend partitions
//     each hold the rename table and reorder buffer slice of their
//     assigned backends (Config.Frontends > 1), with the availability
//     table, freelists, copy-request protocol and R/L-chained commit.
//
// The trace-cache techniques of §3.2 (bank hopping, thermal-aware biased
// mapping, blank silicon) are configured through Config.TC.
package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/tcache"
)

// Config describes one processor configuration.  The zero value is not
// runnable; start from DefaultConfig.
type Config struct {
	// Clusters is the number of backend clusters (paper: 4).
	Clusters int
	// Frontends is the number of frontend partitions.  1 reproduces the
	// baseline monolithic RAT/ROB; 2 is the paper's distributed frontend
	// (bi-clustered frontend over a quad-clustered backend, Figure 3).
	Frontends int

	// Widths (Table 1: fetch, dispatch and commit up to 8 µops/cycle).
	FetchWidth    int
	DispatchWidth int
	CommitWidth   int

	// Frontend latencies (Table 1).
	FetchToDispatch int // trace cache fetch-to-dispatch: 4 cycles
	DecodeLatency   int // decode, rename and steer: 8 cycles
	DispatchLatency int // dispatch into the issue queues: 10 cycles
	// RedirectPenalty is the frontend redirect cost after a mispredicted
	// branch resolves (on top of refilling the pipeline).
	RedirectPenalty int

	// ROBEntries is the total reorder buffer capacity, split evenly among
	// the frontend partitions.
	ROBEntries int
	// DistributedCommitExtra is the added commit latency in cycles when
	// Frontends > 1 (§3.1.2: "the commit latency will be increased by 1
	// cycle").
	DistributedCommitExtra int
	// CrossFrontendCopyPenalty is the extra latency of the two-step copy
	// request (§3.1.1) when the copy producer lives under another
	// frontend.
	CrossFrontendCopyPenalty int

	// Cluster sizes one backend cluster (Table 1).
	Cluster backend.Config

	// TC is the trace-cache organization (§3.2).
	TC tcache.Config

	// Memory hierarchy (Table 1).
	DL1SizeB    int // 16 KB
	DL1Ways     int // 2
	LineB       int // cache line size
	DL1HitLat   int // 1 cycle
	UL2SizeB    int // 2 MB
	UL2Ways     int // 8
	UL2HitLat   int // 12 cycles
	MemLat      int // 500+ cycles
	DTLBSizeB   int
	DTLBWays    int
	PageB       int
	DTLBMissLat int

	// UseBranchPredictor replaces the workload profile's misprediction
	// flags with a real gshare/bimodal predictor (internal/bpred) trained
	// on the stream's branch outcomes.  Off by default: the profiles'
	// calibrated rates are the paper-equivalent behaviour.
	UseBranchPredictor bool
	// BPredBits sizes the predictor tables (2^bits entries).
	BPredBits uint

	// NextLinePrefetch enables a simple sequential prefetcher on DL1
	// refills, as high-frequency designs of the paper's era had; without
	// it, streaming workloads pay a full miss per line.
	NextLinePrefetch bool

	// Buses and links (Table 1).
	MemBuses   int // 2 memory buses
	DisBuses   int // 2 disambiguation buses
	BusLatency int // 4 cycles
	BusArbiter int // 1 cycle
	LinkWidth  int // 2 bidirectional point-to-point links
}

// DefaultConfig returns the paper's baseline configuration (Table 1): a
// quad-cluster processor with a monolithic rename table and reorder
// buffer and a two-banked trace cache with the balanced mapping function.
//
// Structure sizes that the paper specifies are kept verbatim.  The trace
// cache capacity is scaled down together with the thermal interval (see
// DESIGN.md §6): the paper's 32K-µop cache with 10M-cycle intervals
// becomes a 256-trace-per-bank cache with 100K-cycle intervals, so the
// ratio of bank refill time to interval length — which determines the
// cost and thermal behaviour of bank hopping — is preserved.
func DefaultConfig() Config {
	return Config{
		Clusters:  4,
		Frontends: 1,

		FetchWidth:    8,
		DispatchWidth: 8,
		CommitWidth:   8,

		FetchToDispatch: 4,
		DecodeLatency:   8,
		DispatchLatency: 10,
		RedirectPenalty: 2,

		ROBEntries:               256,
		DistributedCommitExtra:   1,
		CrossFrontendCopyPenalty: 1,

		Cluster: backend.Config{
			IntRegs: 160, FPRegs: 160,
			IntQ: 40, FPQ: 40, CopyQ: 40, MemQ: 96,
			Prescheduler: 20,
			MOBEntries:   96,
		},

		TC: tcache.Config{
			Banks:         2,
			TracesPerBank: 256,
			Ways:          4,
			StaticGate:    -1,
		},

		DL1SizeB: 16 << 10, DL1Ways: 2, LineB: 64, DL1HitLat: 1,
		UL2SizeB: 2 << 20, UL2Ways: 8, UL2HitLat: 12, MemLat: 500,
		DTLBSizeB: 64 * 4096, DTLBWays: 4, PageB: 4096, DTLBMissLat: 30,

		UseBranchPredictor: false,
		BPredBits:          14,

		NextLinePrefetch: true,

		MemBuses: 2, DisBuses: 2, BusLatency: 4, BusArbiter: 1,
		LinkWidth: 2,
	}
}

// WithDistributedFrontend returns a copy of the configuration with the
// §3.1 distributed rename and commit mechanism over n frontend
// partitions (the paper evaluates n=2 over 4 backends).
func (c Config) WithDistributedFrontend(n int) Config {
	c.Frontends = n
	return c
}

// WithBankHopping returns a copy with the §3.2.1 bank-hopping trace
// cache: one extra bank is added and one bank is always Vdd-gated in a
// rotating manner, so the effective capacity matches the baseline.
func (c Config) WithBankHopping() Config {
	c.TC.Banks++
	c.TC.Hopping = true
	return c
}

// WithBiasedMapping returns a copy with the §3.2.2 thermal-aware biased
// bank mapping function enabled.
func (c Config) WithBiasedMapping() Config {
	c.TC.Biased = true
	return c
}

// WithBlankSilicon returns a copy with the Figure 13 comparison point:
// one extra bank that is statically gated (cold bulk silicon next to the
// active banks), balanced mapping.
func (c Config) WithBlankSilicon() Config {
	c.TC.Banks++
	c.TC.StaticGate = c.TC.Banks - 1
	return c
}

// Distributed reports whether the configuration uses the distributed
// frontend.
func (c Config) Distributed() bool { return c.Frontends > 1 }

// FrontendOf returns the frontend partition that feeds cluster cl:
// clusters are divided contiguously (Figure 3: frontend 0 feeds backends
// 0 and 1, frontend 1 feeds backends 2 and 3).  The processor tables it
// per cluster at construction, so the cycle loop never calls it.
func (c Config) FrontendOf(cl int) int {
	per := c.Clusters / c.Frontends
	f := cl / per
	if f >= c.Frontends {
		f = c.Frontends - 1
	}
	return f
}

// ClustersOf returns the backend clusters fed by frontend f.
func (c Config) ClustersOf(f int) []int {
	var out []int
	for cl := 0; cl < c.Clusters; cl++ {
		if c.FrontendOf(cl) == f {
			out = append(out, cl)
		}
	}
	return out
}

// Validate checks internal consistency and returns a descriptive error
// for the first violated constraint.
func (c Config) Validate() error {
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("core: need at least one cluster, got %d", c.Clusters)
	case c.Frontends < 1 || c.Frontends > c.Clusters:
		return fmt.Errorf("core: frontends %d must be in [1,%d]", c.Frontends, c.Clusters)
	case c.Clusters%c.Frontends != 0:
		return fmt.Errorf("core: %d clusters not divisible among %d frontends", c.Clusters, c.Frontends)
	case c.ROBEntries%c.Frontends != 0:
		return fmt.Errorf("core: ROB %d not divisible among %d frontends", c.ROBEntries, c.Frontends)
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("core: widths must be positive")
	case c.TC.Banks < 1:
		return fmt.Errorf("core: trace cache needs at least one bank")
	case c.Clusters > 32:
		return fmt.Errorf("core: availability table supports at most 32 backends")
	}
	return nil
}
