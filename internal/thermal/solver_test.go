package thermal

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/floorplan"
)

// solveInPlace is the full Gaussian elimination with partial pivoting
// that the recorded solver replays: the oracle the replay must match bit
// for bit.  It leaves the solution in the augmented matrix's last column.
func solveInPlace(a [][]float64) {
	size := len(a)
	for col := 0; col < size; col++ {
		pivot := col
		for r := col + 1; r < size; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if math.Abs(a[col][col]) < 1e-18 {
			continue // singular row; leave zero
		}
		inv := 1 / a[col][col]
		for r := 0; r < size; r++ {
			if r == col {
				continue
			}
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c <= size; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	for i := 0; i < size; i++ {
		if math.Abs(a[i][i]) > 1e-18 {
			a[i][size] /= a[i][i]
		}
	}
}

// oracleSteadyState solves m's steady state under power by full
// elimination and applies the emergency cap, as SteadyState did before
// the replay.
func oracleSteadyState(m *Model, power []float64) []float64 {
	size := m.n + 2
	stride := size + 1
	flat := m.steadyBase()
	a := make([][]float64, size)
	for i := range a {
		a[i] = flat[i*stride : (i+1)*stride]
	}
	for i, p := range power {
		a[i][size] = p
	}
	solveInPlace(a)
	out := make([]float64, size)
	for i := range out {
		out[i] = min(a[i][size], m.p.EmergencyCap)
	}
	return out
}

// replayGeometries are the floorplans the paper's eight evaluated
// configurations produce (baseline, distributed frontend, bank hopping,
// biased mapping, hopping+biasing, blank silicon, all three techniques,
// DTM: two trace-cache bank counts, centralized or split frontend), plus
// cluster-count, bank-count and partition-count variants.
func replayGeometries() []floorplan.Config {
	var out []floorplan.Config
	for _, banks := range []int{2, 3} {
		out = append(out,
			floorplan.Config{TCBanks: banks, Clusters: 4},
			floorplan.Config{TCBanks: banks, Distributed: true, Partitions: 2, Clusters: 4})
	}
	for _, cl := range []int{1, 2, 8} {
		out = append(out,
			floorplan.Config{TCBanks: 2, Clusters: cl},
			floorplan.Config{TCBanks: 3, Distributed: true, Partitions: 2, Clusters: cl})
	}
	for _, banks := range []int{1, 4, 6} {
		out = append(out,
			floorplan.Config{TCBanks: banks, Clusters: 4},
			floorplan.Config{TCBanks: banks, Distributed: true, Partitions: 4, Clusters: 4})
	}
	return out
}

// TestSteadyStateReplayMatchesElimination checks the recorded replay
// against the full elimination bit for bit, over random power vectors
// (including zero and large entries) on every geometry.
func TestSteadyStateReplayMatchesElimination(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for _, cfg := range replayGeometries() {
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) {
			m := New(floorplan.New(cfg), DefaultParams())
			power := make([]float64, m.Blocks())
			for trial := 0; trial < 50; trial++ {
				for i := range power {
					switch rng.IntN(8) {
					case 0:
						power[i] = 0
					case 1:
						power[i] = 40 * rng.Float64()
					default:
						power[i] = 2 * rng.Float64()
					}
				}
				want := oracleSteadyState(m, power)
				m.SteadyState(power)
				got := allTemps(m)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d node %d: replay %v (%#x), elimination %v (%#x)",
							trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// TestSolverSharedByMatrix checks the table's key: models of one
// geometry and parameter set share one recording, and any parameter
// that changes the matrix gets its own.
func TestSolverSharedByMatrix(t *testing.T) {
	fp := floorplan.New(floorplan.Config{TCBanks: 2, Clusters: 4})
	a, b := New(fp, DefaultParams()), New(floorplan.New(floorplan.Config{TCBanks: 2, Clusters: 4}), DefaultParams())
	if a.ss != b.ss {
		t.Fatal("two models of one geometry recorded the elimination twice")
	}
	p := DefaultParams()
	p.Ambient++ // only the right-hand side changes
	if c := New(fp, p); c.ss == a.ss {
		t.Fatal("a different ambient shares the default parameters' recording")
	}
	p = DefaultParams()
	p.LatK *= 1.5
	if c := New(fp, p); c.ss == a.ss {
		t.Fatal("a different lateral conductance shares the default parameters' recording")
	}
}

// TestSolverTableBounded feeds the shared table more distinct matrices
// than it holds: it stays at its cap, and a model whose recording was
// replaced still solves bit-identically.
func TestSolverTableBounded(t *testing.T) {
	fp := floorplan.New(floorplan.Config{TCBanks: 2, Clusters: 4})
	first := New(fp, DefaultParams())
	for k := 0; k < 3*solverTableCap; k++ {
		p := DefaultParams()
		p.SinkR *= 1 + float64(k+1)/100
		New(fp, p)
		solvers.mu.Lock()
		n := len(solvers.entries)
		solvers.mu.Unlock()
		if n > solverTableCap {
			t.Fatalf("after %d geometries the table holds %d entries, cap %d", k+1, n, solverTableCap)
		}
	}
	solvers.mu.Lock()
	n := len(solvers.entries)
	solvers.mu.Unlock()
	if n != solverTableCap {
		t.Fatalf("table holds %d entries after %d distinct matrices, want its cap %d", n, 3*solverTableCap, solverTableCap)
	}
	power := make([]float64, first.Blocks())
	for i := range power {
		power[i] = 0.5 + 0.1*float64(i%7)
	}
	want := oracleSteadyState(first, power)
	first.SteadyState(power)
	for i, got := range allTemps(first) {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("node %d after eviction: %v, want %v", i, got, want[i])
		}
	}
}

// TestSolverTableConcurrent builds and solves models of several
// geometries from many goroutines at once, as parallel engine runs do:
// under -race the shared table and its recordings must show no race,
// and every solve must still match the full elimination.
func TestSolverTableConcurrent(t *testing.T) {
	geoms := replayGeometries()[:4]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				m := New(floorplan.New(geoms[(g+k)%len(geoms)]), DefaultParams())
				power := make([]float64, m.Blocks())
				for i := range power {
					power[i] = 0.2 + 0.05*float64((i+g)%9)
				}
				want := oracleSteadyState(m, power)
				m.SteadyState(power)
				for i, got := range allTemps(m) {
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("goroutine %d node %d: %v, want %v", g, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
