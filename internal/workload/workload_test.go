package workload

import (
	"math"
	"testing"

	"repro/internal/uop"
)

func TestSuiteComplete(t *testing.T) {
	ps := SPEC2000()
	if len(ps) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26 (paper §4)", len(ps))
	}
	seen := map[string]bool{}
	seeds := map[uint64]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
		if seeds[p.Seed] {
			t.Errorf("duplicate seed %d (%s)", p.Seed, p.Name)
		}
		seeds[p.Seed] = true
	}
	// The paper's shortened slices keep their published fractions.
	short := map[string]float64{
		"eon": 127.0 / 200, "fma3d": 30.0 / 200, "mcf": 156.0 / 200,
		"perlbmk": 58.0 / 200, "swim": 112.0 / 200,
	}
	for _, p := range ps {
		want, isShort := short[p.Name]
		if isShort && math.Abs(p.LengthScale-want) > 1e-9 {
			t.Errorf("%s LengthScale = %v, want %v", p.Name, p.LengthScale, want)
		}
		if !isShort && p.LengthScale != 1.0 {
			t.Errorf("%s LengthScale = %v, want 1.0", p.Name, p.LengthScale)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok || p.Name != "mcf" {
		t.Fatal("ByName(mcf) failed")
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName(nosuch) succeeded")
	}
	if len(Names()) != 26 {
		t.Fatal("Names() wrong length")
	}
}

// TestProfileTableNotShared checks that the profile table is handed out
// by value: mutating what ByName, SPEC2000 or Names returned leaks into
// no later call.
func TestProfileTableNotShared(t *testing.T) {
	want, _ := ByName("gzip")
	p, _ := ByName("gzip")
	p.Seed, p.FracLoad = 0, 0.99
	all := SPEC2000()
	all[0].Name, all[0].HotTraces = "mutated", -1
	Names()[0] = "mutated"
	if got, _ := ByName("gzip"); got != want {
		t.Fatalf("ByName(gzip) after mutation = %+v, want %+v", got, want)
	}
	if got := SPEC2000()[0]; got != want {
		t.Fatalf("SPEC2000()[0] after mutation = %+v, want %+v", got, want)
	}
	if got := Names()[0]; got != "gzip" {
		t.Fatalf("Names()[0] after mutation = %q, want gzip", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gzip")
	a := NewGenerator(p, 5000)
	b := NewGenerator(p, 5000)
	for {
		ua, oka := a.Next()
		ub, okb := b.Next()
		if oka != okb {
			t.Fatal("generators ended at different points")
		}
		if !oka {
			break
		}
		if ua != ub {
			t.Fatalf("divergence at seq %d: %+v vs %+v", ua.Seq, ua, ub)
		}
	}
}

func TestGeneratorLength(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 12345)
	n := uint64(0)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Seq != n {
			t.Fatalf("seq %d at position %d", op.Seq, n)
		}
		n++
	}
	if n != 12345 {
		t.Fatalf("emitted %d ops, want 12345", n)
	}
	if g.Total() != 12345 || g.Emitted() != 12345 {
		t.Fatalf("Total/Emitted inconsistent: %d/%d", g.Total(), g.Emitted())
	}
}

func TestLengthScaleApplied(t *testing.T) {
	p, _ := ByName("fma3d") // LengthScale 30/200
	g := NewGenerator(p, 10000)
	want := uint64(10000 * 30.0 / 200)
	if g.Total() != want {
		t.Fatalf("Total = %d, want %d", g.Total(), want)
	}
}

func TestMixMatchesProfile(t *testing.T) {
	p, _ := ByName("swim")
	g := NewGenerator(p, 200000)
	var counts [uop.NumClasses]int
	total := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		counts[op.Class]++
		total++
	}
	frac := func(c uop.Class) float64 { return float64(counts[c]) / float64(total) }
	// Branches terminate traces early, which re-weights the realized mix;
	// allow a generous band but require the right character.
	if f := frac(uop.FPAdd) + frac(uop.FPMul) + frac(uop.FPDiv); math.Abs(f-0.37) > 0.12 {
		t.Errorf("swim FP fraction = %v, want ~0.37", f)
	}
	if f := frac(uop.Load); math.Abs(f-p.FracLoad) > 0.1 {
		t.Errorf("swim load fraction = %v, want ~%v", f, p.FracLoad)
	}
	if counts[uop.Copy] != 0 {
		t.Error("generator emitted internal Copy ops")
	}
}

func TestTraceStability(t *testing.T) {
	// The static content of a trace line must be a pure function of its
	// ID: same class sequence and length every time the trace executes.
	p, _ := ByName("vortex")
	g := NewGenerator(p, 300000)
	type static struct {
		classes [uop.MaxTraceOps]uop.Class
		n       int
	}
	seen := map[uint64]static{}
	var cur static
	var curID uint64
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		id := op.PC >> 6
		if cur.n == 0 {
			curID = id
		} else if id != curID {
			t.Fatalf("trace changed ID mid-line at seq %d", op.Seq)
		}
		cur.classes[cur.n] = op.Class
		cur.n++
		if op.TraceEnd {
			if prev, ok := seen[curID]; ok && prev != cur {
				t.Fatalf("trace %x changed static content: %v vs %v", curID, prev, cur)
			}
			seen[curID] = cur
			cur = static{}
		}
		if cur.n > uop.MaxTraceOps {
			t.Fatalf("trace longer than %d ops", uop.MaxTraceOps)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct traces seen", len(seen))
	}
}

func TestTraceEndsAtBranch(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 100000)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Class == uop.Branch && !op.TraceEnd {
			t.Fatalf("branch at seq %d does not end its trace", op.Seq)
		}
	}
}

func TestAddressesWithinWorkingSet(t *testing.T) {
	p, _ := ByName("mcf")
	g := NewGenerator(p, 100000)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Class.IsMem() {
			if op.Addr >= p.DataWS {
				t.Fatalf("address %#x outside working set %#x", op.Addr, p.DataWS)
			}
			if op.Addr&7 != 0 {
				t.Fatalf("misaligned address %#x", op.Addr)
			}
		} else if op.Addr != 0 {
			t.Fatalf("non-memory op with address %#x", op.Addr)
		}
	}
}

func TestRegisterOperandsValid(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "art"} {
		p, _ := ByName(name)
		g := NewGenerator(p, 50000)
		for {
			op, ok := g.Next()
			if !ok {
				break
			}
			check := func(r int8) {
				if r != uop.RegNone && (r < 0 || r >= uop.NumLogicalRegs) {
					t.Fatalf("%s: bad register %d in %+v", name, r, op)
				}
			}
			check(op.Src1)
			check(op.Src2)
			check(op.Dst)
			if op.Class.IsFP() && op.HasDst() && !uop.IsFPReg(op.Dst) {
				t.Fatalf("%s: FP op writes integer register: %+v", name, op)
			}
			if op.Class == uop.Branch && op.HasDst() {
				t.Fatalf("%s: branch with destination: %+v", name, op)
			}
			if op.Class == uop.Store && op.HasDst() {
				t.Fatalf("%s: store with destination: %+v", name, op)
			}
		}
	}
}

func TestMispredictionRateReasonable(t *testing.T) {
	p, _ := ByName("vpr") // MispredRate 0.06
	g := NewGenerator(p, 300000)
	branches, mispred := 0, 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Class == uop.Branch {
			branches++
			if op.Mispred {
				mispred++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	rate := float64(mispred) / float64(branches)
	if math.Abs(rate-p.MispredRate) > 0.02 {
		t.Errorf("mispred rate %v, want ~%v", rate, p.MispredRate)
	}
}

func TestHotPhaseLocality(t *testing.T) {
	// The hot-phase working set must be much smaller than the cold one:
	// count distinct traces in windows and require strong reuse overall.
	p, _ := ByName("gzip")
	g := NewGenerator(p, 200000)
	distinct := map[uint64]bool{}
	n := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.TraceEnd {
			distinct[op.PC>>6] = true
			n++
		}
	}
	if n == 0 {
		t.Fatal("no traces")
	}
	reuse := float64(n) / float64(len(distinct))
	if reuse < 20 {
		t.Errorf("trace reuse factor %.1f too low for a loopy benchmark", reuse)
	}
}
