package thermal

import (
	"math"
	"sync"
)

// solver is the recorded Gaussian elimination, with partial pivoting, of
// one steady-state system.  The pivot choices, row swaps, elimination
// factors and final diagonal depend only on the conductance matrix, not
// on the right-hand side, so solve replays them on a right-hand side
// alone.  A solver is immutable once recorded and is shared by every
// Model whose matrix is bit-identical (see solverTable).
type solver struct {
	key  []float64 // the flat augmented matrix it was recorded from
	hash uint64    // hashMatrix(key)
	rhs  []float64 // the matrix's constant right-hand side column

	// Column col swaps row pivot[col] into place, then subtracts
	// factor[k] times row col from row rows[k] for k in
	// [start[col], start[col+1]).
	pivot  []int32
	start  []int32
	rows   []int32
	factor []float64
	// diag is the final diagonal the solution is divided by; 0 marks a
	// singular row, which is left undivided.
	diag []float64
}

// record eliminates a copy of the flat size x (size+1) augmented matrix
// a, recording every step that solve replays.  The elimination is the
// textbook one: for each column, swap up the row of largest magnitude,
// skip a (near-)singular pivot, and clear the column in every other row.
func record(a []float64, size int, hash uint64) *solver {
	stride := size + 1
	work := append([]float64(nil), a...)
	row := make([][]float64, size)
	for i := range row {
		row[i] = work[i*stride : (i+1)*stride]
	}
	s := &solver{
		key:   a,
		hash:  hash,
		rhs:   make([]float64, size),
		pivot: make([]int32, size),
		start: make([]int32, size+1),
		diag:  make([]float64, size),
	}
	for i := range s.rhs {
		s.rhs[i] = row[i][size]
	}
	for col := 0; col < size; col++ {
		s.start[col] = int32(len(s.rows))
		pivot := col
		for r := col + 1; r < size; r++ {
			if math.Abs(row[r][col]) > math.Abs(row[pivot][col]) {
				pivot = r
			}
		}
		row[col], row[pivot] = row[pivot], row[col]
		s.pivot[col] = int32(pivot)
		if math.Abs(row[col][col]) < 1e-18 {
			continue // singular row; leave zero
		}
		inv := 1 / row[col][col]
		for r := 0; r < size; r++ {
			if r == col {
				continue
			}
			factor := row[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < size; c++ {
				row[r][c] -= factor * row[col][c]
			}
			s.rows = append(s.rows, int32(r))
			s.factor = append(s.factor, factor)
		}
	}
	s.start[size] = int32(len(s.rows))
	for i := range s.diag {
		if math.Abs(row[i][i]) > 1e-18 {
			s.diag[i] = row[i][i]
		}
	}
	return s
}

// solve replays the recorded elimination on the right-hand side x,
// leaving the solution in x.  Each update is the expression the full
// elimination applies to the augmented column, x[r] -= f * x[col] for
// a[r][c] -= factor * a[col][c], so the result is bit-identical to it.
func (s *solver) solve(x []float64) {
	for col, p := range s.pivot {
		x[col], x[p] = x[p], x[col]
		for k := s.start[col]; k < s.start[col+1]; k++ {
			x[s.rows[k]] -= s.factor[k] * x[col]
		}
	}
	for i, d := range s.diag {
		if d != 0 {
			x[i] /= d
		}
	}
}

// hashMatrix is FNV-1a over the bits of a matrix's entries.
func hashMatrix(a []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range a {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// sameBits reports whether a and b hold bit-identical entries.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// solverTableCap bounds the shared table.  One geometry and parameter
// set is one entry; the paper's configurations need a handful.
const solverTableCap = 16

// solverTable shares recorded solvers across Models (and so across runs
// and Engines) by matrix contents: a hash plus a full bit compare, so no
// parameter that shapes the matrix can be left out of the key.  It holds
// at most solverTableCap entries and replaces the oldest when full.
type solverTable struct {
	mu      sync.Mutex
	entries []*solver
	next    int // the slot a full table replaces next
}

var solvers solverTable

// get returns the solver recorded for the flat size x (size+1)
// augmented matrix a, recording it on a miss.  Concurrent misses on one
// matrix may each record it; the duplicates are equal and the extra
// entry ages out.  A solver is published only once fully recorded, so a
// run that panics (and is recovered by its caller) leaves the table
// intact.
func (t *solverTable) get(a []float64, size int) *solver {
	h := hashMatrix(a)
	if s := t.lookup(a, h); s != nil {
		return s
	}
	s := record(a, size, h)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) < solverTableCap {
		t.entries = append(t.entries, s)
	} else {
		t.entries[t.next] = s
		t.next = (t.next + 1) % solverTableCap
	}
	return s
}

func (t *solverTable) lookup(a []float64, h uint64) *solver {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.entries {
		if s.hash == h && sameBits(s.key, a) {
			return s
		}
	}
	return nil
}
