package hashring

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestBalancedShares is the placement property: for 2–16 nodes, with
// labels that differ only in adjacent port numbers and with random
// labels, the busiest node owns at most twice the keys of the idlest
// over 20k canonical-shaped (sha256 hex) keys.
func TestBalancedShares(t *testing.T) {
	keys := make([]string, 20_000)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("request-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 16; n++ {
		sets := map[string][]string{
			"ports-8731":   adjacentPorts("127.0.0.1", 8731, n),
			"ports-random": adjacentPorts("10.0.0.7", 1024+rng.Intn(60000), n),
			"random":       randomLabels(rng, n),
		}
		for name, labels := range sets {
			ring, err := New(labels)
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			for _, k := range keys {
				counts[ring.Node(k)]++
			}
			lo, hi := len(keys), 0
			for _, l := range labels {
				lo, hi = min(lo, counts[l]), max(hi, counts[l])
			}
			if lo == 0 || float64(hi)/float64(lo) > 2.0 {
				t.Errorf("%d nodes, %s labels: max/min share %d/%d exceeds 2.0 (%v)",
					n, name, hi, lo, labels)
			}
		}
	}
}

func adjacentPorts(host string, first, n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("http://%s:%d", host, first+i)
	}
	return labels
}

func randomLabels(rng *rand.Rand, n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("http://10.%d.%d.%d:%d",
			rng.Intn(256), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
	}
	return labels
}
