// Package hashring implements the consistent-hash ring the scheduler
// routes by (pkg/scheduler re-exports it as scheduler.Ring).
package hashring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring over a set of backend nodes.
// Each node is hashed at DefaultReplicas virtual points; a key is owned
// by the first virtual point clockwise from the key's hash.  A Ring is
// safe for concurrent use.
type Ring struct {
	nodes  []string // distinct node names, sorted
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// DefaultReplicas is the virtual-point count per node.  It is a
// constant, not a setting, so every scheduler over one backend set
// routes alike.  128 keeps the assignment spread within a few
// percent of uniform for small rings.
const DefaultReplicas = 128

// New builds a ring over nodes (duplicates are collapsed).  The
// resulting assignment depends only on the set of node names — not their
// order — so a restarted scheduler with the same backend set shards
// identically.
func New(nodes []string) (*Ring, error) {
	distinct := make([]string, 0, len(nodes))
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("hashring: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	if len(distinct) == 0 {
		return nil, fmt.Errorf("hashring: ring needs at least one node")
	}
	sort.Strings(distinct)

	r := &Ring{
		nodes:  distinct,
		points: make([]ringPoint, 0, len(distinct)*DefaultReplicas),
	}
	for i, n := range distinct {
		// One label hash per node; each virtual point mixes it with its
		// index.  Hashing "label#v" strings instead clusters the points of
		// labels that differ only in a port digit, skewing load up to ~30×.
		h := hash64(n)
		for v := 0; v < DefaultReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash: splitmix64(h + uint64(v)*0x9e3779b97f4a7c15),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Hash collisions between virtual points are broken by node name
		// so the ring stays order-independent.
		return r.nodes[pa.node] < r.nodes[pb.node]
	})
	return r, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// splitmix64 is the SplitMix64 output mix: a bijection on uint64 whose
// every output bit depends on every input bit.
func splitmix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Nodes returns the distinct node names, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// start returns the index of the first virtual point clockwise from
// key's hash.
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Node returns the home node of key.
func (r *Ring) Node(key string) string {
	return r.nodes[r.points[r.start(key)].node]
}

// Sequence returns every node in the clockwise order their virtual
// points appear after key's hash: Sequence(key)[0] is the home node and
// the remainder is the rendezvous/failover order a dispatcher walks when
// backends fail.  Every node appears exactly once.
func (r *Ring) Sequence(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, n := r.start(key), 0; n < len(r.points); i, n = (i+1)%len(r.points), n+1 {
		p := r.points[i]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
			if len(out) == len(r.nodes) {
				break
			}
		}
	}
	return out
}
