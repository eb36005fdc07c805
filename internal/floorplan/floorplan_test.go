package floorplan

import (
	"math"
	"strings"
	"testing"
)

func baseline() *Floorplan {
	return New(Config{TCBanks: 2, Clusters: 4})
}

func TestBaselineBlocks(t *testing.T) {
	f := baseline()
	// Figure 10a frontend blocks plus UL2 plus 4x10 cluster blocks.
	want := []string{ROB, RAT, ITLB, "TC-0", DECO, BP, "TC-1", UL2}
	for _, n := range want {
		if f.Index(n) < 0 {
			t.Errorf("block %q missing", n)
		}
	}
	for cl := 0; cl < 4; cl++ {
		for _, u := range ClusterUnits {
			if f.Index(ClusterBlock(cl, u)) < 0 {
				t.Errorf("cluster block %s missing", ClusterBlock(cl, u))
			}
		}
	}
	if len(f.Blocks) != 8+4*len(ClusterUnits) {
		t.Errorf("block count = %d", len(f.Blocks))
	}
}

func TestFrontendShare(t *testing.T) {
	// The paper: frontend ≈ 20% of the processor area.
	f := baseline()
	fe := 0.0
	for _, b := range f.Blocks {
		if IsFrontend(b.Name) {
			fe += b.Area()
		}
	}
	share := fe / f.TotalArea()
	if share < 0.15 || share > 0.25 {
		t.Errorf("frontend area share = %.2f, want ~0.20", share)
	}
}

func TestNoOverlap(t *testing.T) {
	for _, cfg := range []Config{
		{TCBanks: 2, Clusters: 4},
		{TCBanks: 3, Clusters: 4},
		{TCBanks: 2, Distributed: true, Partitions: 2, Clusters: 4},
		{TCBanks: 3, Distributed: true, Partitions: 2, Clusters: 4},
		{TCBanks: 2, Distributed: true, Partitions: 4, Clusters: 4},
	} {
		f := New(cfg)
		for i := 0; i < len(f.Blocks); i++ {
			for j := i + 1; j < len(f.Blocks); j++ {
				a, b := f.Blocks[i], f.Blocks[j]
				ox := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
				oy := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
				if ox > 1e-6 && oy > 1e-6 {
					t.Errorf("cfg %+v: blocks %s and %s overlap", cfg, a.Name, b.Name)
				}
			}
		}
	}
}

func TestAreasConsistentAcrossLayouts(t *testing.T) {
	// Block areas must not change between layouts, except the intended
	// growth (extra TC bank; 1.3x ROB/RAT for distributed).
	base := baseline()
	hop := New(Config{TCBanks: 3, Clusters: 4})
	for _, n := range []string{ROB, RAT, ITLB, DECO, BP, UL2, "TC-0", "TC-1"} {
		a := base.Blocks[base.Index(n)].Area()
		b := hop.Blocks[hop.Index(n)].Area()
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("%s area changed between layouts: %v vs %v", n, a, b)
		}
	}
	// Hopping adds exactly one bank-sized block (paper: +1.6% of area).
	extra := hop.TotalArea() - base.TotalArea()
	bank := base.Blocks[base.Index("TC-0")].Area()
	if math.Abs(extra-bank) > 1e-9 {
		t.Errorf("hopping area overhead = %v, want one bank (%v)", extra, bank)
	}
	if frac := extra / base.TotalArea(); frac > 0.05 {
		t.Errorf("hopping overhead fraction %.3f too large", frac)
	}
}

func TestDistributedAreaOverhead(t *testing.T) {
	base := baseline()
	dist := New(Config{TCBanks: 2, Distributed: true, Partitions: 2, Clusters: 4})
	robArea := base.Blocks[base.Index(ROB)].Area()
	ratArea := base.Blocks[base.Index(RAT)].Area()
	var robParts, ratParts float64
	for p := 0; p < 2; p++ {
		robParts += dist.Blocks[dist.Index(ROBPart(p))].Area()
		ratParts += dist.Blocks[dist.Index(RATPart(p))].Area()
	}
	if r := robParts / robArea; math.Abs(r-1.3) > 0.01 {
		t.Errorf("ROB partitions area ratio = %.3f, want 1.3 (paper: +3%% total)", r)
	}
	if r := ratParts / ratArea; math.Abs(r-1.3) > 0.01 {
		t.Errorf("RAT partitions area ratio = %.3f, want 1.3", r)
	}
	// Total overhead ~3% of the processor (paper §4.1).
	frac := (dist.TotalArea() - base.TotalArea()) / base.TotalArea()
	if frac < 0.005 || frac > 0.05 {
		t.Errorf("distributed area overhead = %.3f, want ~0.03", frac)
	}
}

func TestAdjacencySymmetricAndPositive(t *testing.T) {
	f := baseline()
	for _, a := range f.Adjacencies() {
		if a.A == a.B {
			t.Error("self adjacency")
		}
		if a.Shared <= 0 || a.Dist <= 0 {
			t.Errorf("bad adjacency %+v", a)
		}
	}
}

func TestKnownAdjacencies(t *testing.T) {
	f := baseline()
	pairs := map[[2]string]bool{}
	for _, a := range f.Adjacencies() {
		n1, n2 := f.Blocks[a.A].Name, f.Blocks[a.B].Name
		pairs[[2]string{n1, n2}] = true
		pairs[[2]string{n2, n1}] = true
	}
	// Figure 10a: RAT below ROB, ITLB right of RAT; TC-1 right of BP.
	for _, want := range [][2]string{{ROB, RAT}, {RAT, ITLB}, {ITLB, "TC-0"}, {BP, "TC-1"}, {RAT, DECO}} {
		if !pairs[want] {
			t.Errorf("expected adjacency %v missing", want)
		}
	}
	// Non-adjacent in Fig 10: RAT and TC-0 are separated by the ITLB.
	if pairs[[2]string{RAT, "TC-0"}] {
		t.Error("RAT and TC-0 adjacent in baseline, but ITLB sits between them")
	}
}

func TestHoppingLayoutSurroundsRAT(t *testing.T) {
	// Figure 11 places the RAT next to trace-cache banks so the hopped
	// banks cool it.
	f := New(Config{TCBanks: 3, Clusters: 4})
	adjacent := false
	for _, a := range f.Adjacencies() {
		n1, n2 := f.Blocks[a.A].Name, f.Blocks[a.B].Name
		if (n1 == RAT && IsTraceCache(n2)) || (n2 == RAT && IsTraceCache(n1)) {
			adjacent = true
		}
	}
	if !adjacent {
		t.Error("Figure 11 layout: RAT not adjacent to any trace-cache bank")
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		name                 string
		fe, be, tc, rob, rat bool
	}{
		{ROB, true, false, false, true, false},
		{"ROB-1", true, false, false, true, false},
		{RAT, true, false, false, false, true},
		{"RAT-0", true, false, false, false, true},
		{"TC-2", true, false, true, false, false},
		{DECO, true, false, false, false, false},
		{UL2, false, false, false, false, false},
		{"C2.IRF", false, true, false, false, false},
	}
	for _, c := range cases {
		if IsFrontend(c.name) != c.fe {
			t.Errorf("IsFrontend(%s) = %v", c.name, !c.fe)
		}
		if IsBackend(c.name) != c.be {
			t.Errorf("IsBackend(%s) = %v", c.name, !c.be)
		}
		if IsTraceCache(c.name) != c.tc {
			t.Errorf("IsTraceCache(%s) = %v", c.name, !c.tc)
		}
		if IsROB(c.name) != c.rob {
			t.Errorf("IsROB(%s) = %v", c.name, !c.rob)
		}
		if IsRAT(c.name) != c.rat {
			t.Errorf("IsRAT(%s) = %v", c.name, !c.rat)
		}
	}
}

func TestIndexAndNames(t *testing.T) {
	f := baseline()
	if f.Index("nosuch") != -1 {
		t.Error("Index of missing block not -1")
	}
	names := f.Names()
	if len(names) != len(f.Blocks) {
		t.Fatal("Names length mismatch")
	}
	for i, n := range names {
		if f.Index(n) != i {
			t.Errorf("Index(%s) = %d, want %d", n, f.Index(n), i)
		}
	}
}

func TestRender(t *testing.T) {
	out := baseline().Render(0.5)
	if !strings.Contains(out, "\n") || len(out) < 100 {
		t.Fatalf("render too small:\n%s", out)
	}
	out2 := baseline().Render(0) // default cell size
	if out2 != out {
		t.Error("default cell size differs from 0.5")
	}
}

func TestDuplicateBlockPanics(t *testing.T) {
	f := &Floorplan{byName: map[string]int{}}
	f.add(Block{Name: "X", W: 1, H: 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate add did not panic")
		}
	}()
	f.add(Block{Name: "X", W: 1, H: 1})
}

func TestDefaults(t *testing.T) {
	f := New(Config{})
	if f.Index(ROB) < 0 || f.Index("C3.IS") < 0 {
		t.Error("zero config did not default to baseline quad-cluster")
	}
}

func TestFourBankLayout(t *testing.T) {
	// Ablation configurations use up to four banks; every bank must have
	// a floorplan block in both the centralized and distributed layouts.
	for _, cfg := range []Config{
		{TCBanks: 4, Clusters: 4},
		{TCBanks: 4, Distributed: true, Partitions: 2, Clusters: 4},
	} {
		f := New(cfg)
		for b := 0; b < 4; b++ {
			if f.Index(TCBank(b)) < 0 {
				t.Errorf("cfg %+v: bank %d missing from floorplan", cfg, b)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := New(Config{TCBanks: 3})
	c := f.Clone()
	if len(c.Blocks) != len(f.Blocks) || len(c.Adjacencies()) != len(f.Adjacencies()) || c.Index(ROB) != f.Index(ROB) {
		t.Fatal("clone differs from the original")
	}
	c.Blocks[0].Name = "edited"
	c.Adjacencies()[0].Shared = -1
	c.add(Block{Name: "extra", W: 1, H: 1})
	if f.Blocks[0].Name == "edited" || f.Adjacencies()[0].Shared == -1 || f.Index("extra") != -1 || len(f.Blocks) != len(c.Blocks)-1 {
		t.Error("editing the clone changed the original")
	}
}
