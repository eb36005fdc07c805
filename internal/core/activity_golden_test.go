package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// digestOps is the run length per benchmark and digestEvery the snapshot
// stride, in cycles, of the activity digest.
const (
	digestOps   = 20_000
	digestEvery = 1_000
)

// TestGoldenActivityDigest pins every activity counter the power model
// reads, not only their end-of-run totals: for each benchmark of the
// suite under the baseline, the distributed frontend and distributed
// frontend plus bank hopping, and four frontends over eight clusters
// (remote MOB address broadcasts then land on clusters the issue select
// visits both before and after the storing cluster), it hashes the
// cumulative Activity snapshot every digestEvery cycles and the final
// Stats.  A cycle-loop rewrite
// that shifts any counter by one event in any 1k-cycle window, even if
// the totals and the cycle count survive, changes the digest.
func TestGoldenActivityDigest(t *testing.T) {
	configs := digestConfigs()
	// One goroutine per configuration: the runs are independent and the
	// suite takes seconds per configuration.
	digests := make([]map[string][]string, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		digests[i] = make(map[string][]string)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, bench := range workload.Names() {
				prof, _ := workload.ByName(bench)
				prof.LengthScale = 1
				p := New(c.cfg, workload.NewGenerator(prof, digestOps))
				digests[i][bench+"/"+c.name] = activityDigest(p)
			}
		}()
	}
	wg.Wait()
	got := make(map[string][]string)
	for _, d := range digests {
		maps.Copy(got, d)
	}
	goldentest.Check(t, filepath.Join("testdata", "golden_activity_digest.json"), got, *updateGolden)
}

// digestConfig is one named configuration of the activity digest.
type digestConfig struct {
	name string
	cfg  Config
}

// digestConfigs returns the configurations TestGoldenActivityDigest
// runs every benchmark on.
func digestConfigs() []digestConfig {
	return []digestConfig{
		{"base", DefaultConfig()},
		{"dist2", DefaultConfig().WithDistributedFrontend(2)},
		{"dist2_hop", DefaultConfig().WithDistributedFrontend(2).WithBankHopping()},
		{"dist4_8cl", eightClusters().WithDistributedFrontend(4)},
	}
}

// eightClusters is the default machine widened to eight backend clusters.
func eightClusters() Config {
	c := DefaultConfig()
	c.Clusters = 8
	return c
}

// activityDigest runs p to completion and returns its cycle count and
// the hex SHA-256 over the Activity snapshots and the final Stats.
func activityDigest(p *Processor) []string { return steppedDigest(p, digestEvery, nil) }

// steppedDigest is activityDigest with snapshots every `every` cycles;
// after the k-th snapshot (k from 1) it calls between(k), if set.
func steppedDigest(p *Processor, every uint64, between func(k uint64)) []string {
	h := sha256.New()
	var a Activity
	var buf []byte
	for k := uint64(1); !p.Done(); k++ {
		p.RunCycles(every)
		p.ActivityInto(&a)
		buf = appendActivity(buf[:0], &a)
		h.Write(buf)
		if between != nil {
			between(k)
		}
	}
	s := &p.Stats
	// The Stats fields are listed explicitly so that adding a counter
	// does not change the digest of the ones pinned here.
	buf = buf[:0]
	for _, v := range []uint64{
		s.Cycles, s.Committed, s.TracesFetched, s.TCMissStalls,
		s.DispatchStalls, s.Mispredicts, s.Copies, s.CrossFrontend,
		s.LoadForwards, s.LoadMisses, s.EventPushes, s.EventPops,
		s.StoreWakeups, s.StorePollsAvoided,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	h.Write(buf)
	return []string{fmt.Sprintf("cycles=%d", s.Cycles), hex.EncodeToString(h.Sum(nil))}
}

// appendActivity appends every counter of a to buf in a fixed order.
func appendActivity(buf []byte, a *Activity) []byte {
	u := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	u(a.Cycles, a.Committed, a.ITLB, a.BP, a.Decode, a.SteerOps, a.UL2)
	for _, s := range [][]uint64{a.TCBank, a.RATReads, a.RATWrites, a.ROBAllocs, a.ROBCompletes, a.ROBCommits, a.ROBWalks} {
		u(uint64(len(s)))
		u(s...)
	}
	for i := range a.Cluster {
		c := &a.Cluster[i]
		u(c.IRFReads, c.IRFWrites, c.FPRFReads, c.FPRFWrites)
		u(c.Queue[:]...)
		u(c.Issues[:]...)
		u(c.IntFUOps, c.FPFUOps, c.AgenOps, c.DL1, c.DTLB, c.MOB)
	}
	return buf
}
