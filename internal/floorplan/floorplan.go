// Package floorplan models the processor layouts of Figures 10 and 11 of
// the paper: block rectangles for the frontend (ROB, RAT, ITLB, decoder,
// branch predictor and trace-cache banks), the UL2, and the four backend
// clusters with their sub-blocks.
//
// The floorplan feeds the thermal model: block areas set power densities
// and thermal capacitances; shared edges set the lateral heat-spreading
// paths (the mechanism behind the paper's observations that, e.g., a
// cooler trace cache lets the rename table dissipate heat toward it).
//
// Block areas are kept identical across configurations, except for the
// intentional growth the paper reports: one extra trace-cache bank for
// bank hopping (+1.6% of processor area) and the split ROB/RAT partitions
// of the distributed frontend (1.3x their centralized area in total, +3%
// of processor area).
package floorplan

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// Block is a named rectangle on the die (units: mm).
type Block struct {
	Name       string
	X, Y, W, H float64
}

// Area returns the block area in mm².
func (b Block) Area() float64 { return b.W * b.H }

// CenterX and CenterY return the block's center coordinates.
func (b Block) CenterX() float64 { return b.X + b.W/2 }

// CenterY returns the block's vertical center.
func (b Block) CenterY() float64 { return b.Y + b.H/2 }

// Adjacency is one lateral thermal interface between two blocks.
type Adjacency struct {
	A, B   int     // block indices
	Shared float64 // shared edge length (mm)
	Dist   float64 // center-to-center distance (mm)
}

// Floorplan is a set of blocks plus derived adjacency information.
type Floorplan struct {
	Blocks []Block
	byName map[string]int
	adj    []Adjacency
}

// Config selects a layout variant.
type Config struct {
	TCBanks     int  // trace-cache banks (2 baseline, 3 hopping/blank)
	Distributed bool // split ROB/RAT into partitions
	Partitions  int  // number of frontend partitions when Distributed (default 2)
	Clusters    int  // backend clusters (4 in the paper)
}

// Canonical block names.  Cluster blocks are "C<i>.<unit>".
const (
	ROB  = "ROB"
	RAT  = "RAT"
	ITLB = "ITLB"
	DECO = "DECO"
	BP   = "BP"
	UL2  = "UL2"
)

// TCBank returns the name of trace-cache bank b.
func TCBank(b int) string { return fmt.Sprintf("TC-%d", b) }

// ROBPart and RATPart name the distributed partitions.
func ROBPart(p int) string { return fmt.Sprintf("ROB-%d", p) }

// RATPart names a distributed rename-table partition.
func RATPart(p int) string { return fmt.Sprintf("RAT-%d", p) }

// ClusterBlock names sub-block `unit` of cluster cl.
func ClusterBlock(cl int, unit string) string { return fmt.Sprintf("C%d.%s", cl, unit) }

// Cluster sub-block unit names (Figure 10b).
var ClusterUnits = []string{"DL1", "DTLB", "FPFU", "IFU", "MOB", "FPRF", "IRF", "FPS", "CS", "IS"}

// IsFrontend reports whether the named block belongs to the frontend.
func IsFrontend(name string) bool {
	return name == RAT || name == ROB || name == ITLB || name == DECO || name == BP ||
		strings.HasPrefix(name, "TC-") || strings.HasPrefix(name, "ROB-") ||
		strings.HasPrefix(name, "RAT-")
}

// IsBackend reports whether the named block belongs to a backend cluster.
func IsBackend(name string) bool { return strings.HasPrefix(name, "C") && strings.Contains(name, ".") }

// IsTraceCache reports whether the named block is a trace-cache bank.
func IsTraceCache(name string) bool { return strings.HasPrefix(name, "TC-") }

// IsROB reports whether the named block is (a partition of) the reorder
// buffer.
func IsROB(name string) bool { return name == ROB || strings.HasPrefix(name, "ROB-") }

// IsRAT reports whether the named block is (a partition of) the rename
// table.
func IsRAT(name string) bool { return name == RAT || strings.HasPrefix(name, "RAT-") }

// Baseline block dimensions (mm).  The frontend strip is 5.0 wide; the
// chip is ~80 mm² with the frontend at 20% (the share the paper reports
// for its clustered design).
const (
	robW, robH   = 5.0, 1.0 // 5.0 mm²
	ratW, ratH   = 1.5, 1.1 // 1.65 mm²
	itlbW, itlbH = 1.0, 1.1 // 1.1 mm²
	tcW, tcH     = 2.5, 1.1 // 2.75 mm² per bank
	decoW, decoH = 1.5, 1.1 // 1.65 mm²
	bpW, bpH     = 1.0, 1.1 // 1.1 mm²
	ul2W, ul2H   = 5.0, 3.2 // 16 mm²
	feH          = 3.2      // frontend strip height
	clW, clH     = 5.0, 2.4 // cluster 12 mm²
)

// New builds the floorplan for the given configuration.
func New(cfg Config) *Floorplan {
	if cfg.Clusters <= 0 {
		cfg.Clusters = 4
	}
	if cfg.TCBanks <= 0 {
		cfg.TCBanks = 2
	}
	f := &Floorplan{byName: map[string]int{}}

	// ---- Frontend strip (y in [0, feH)) ----
	switch {
	case !cfg.Distributed && cfg.TCBanks <= 2:
		// Figure 10a:  ROB / RAT ITLB TC-0 / DECO BP TC-1
		f.add(Block{ROB, 0, 0, robW, robH})
		f.add(Block{RAT, 0, robH, ratW, ratH})
		f.add(Block{ITLB, ratW, robH, itlbW, itlbH})
		f.add(Block{TCBank(0), ratW + itlbW, robH, tcW, tcH})
		f.add(Block{DECO, 0, robH + ratH, decoW, decoH})
		f.add(Block{BP, decoW, robH + ratH, bpW, bpH})
		f.add(Block{TCBank(1), decoW + bpW, robH + ratH, tcW, tcH})
	case !cfg.Distributed:
		// Figure 11:  ROB / DECO TC-0 ITLB / RAT TC-1 BP TC-2
		f.add(Block{ROB, 0, 0, robW, robH})
		f.add(Block{DECO, 0, robH, decoW, decoH})
		f.add(Block{TCBank(0), decoW, robH, tcW, tcH})
		f.add(Block{ITLB, decoW + tcW, robH, itlbW, itlbH})
		f.add(Block{RAT, 0, robH + decoH, ratW, ratH})
		f.add(Block{TCBank(1), ratW, robH + decoH, tcW, tcH})
		f.add(Block{BP, ratW + tcW, robH + decoH, bpW, bpH})
		f.add(Block{TCBank(2), ratW + tcW + bpW, robH + decoH, tcW, tcH})
		// Further banks (ablation configurations) extend the bottom row.
		for b := 3; b < cfg.TCBanks; b++ {
			f.add(Block{TCBank(b), ratW + tcW + bpW + tcW*float64(b-2), robH + decoH, tcW, tcH})
		}
	default:
		// Distributed frontend: ROB and RAT split into partitions, kept
		// together in the same location as the centralized versions (§4);
		// the partitions total 1.3x the centralized area (+3% of the
		// processor area including the freelist/steer additions).
		n := cfg.Partitions
		if n < 2 {
			n = 2
		}
		pw := robW * 1.3 / float64(n)
		for i := 0; i < n; i++ {
			f.add(Block{ROBPart(i), float64(i) * pw, 0, pw, robH})
		}
		rw := ratW * 1.3 / float64(n)
		for i := 0; i < n; i++ {
			f.add(Block{RATPart(i), float64(i) * rw, robH, rw, ratH})
		}
		x := float64(n) * rw
		f.add(Block{ITLB, x, robH, itlbW, itlbH})
		f.add(Block{TCBank(0), x + itlbW, robH, tcW, tcH})
		f.add(Block{DECO, 0, robH + ratH, decoW, decoH})
		f.add(Block{BP, decoW, robH + ratH, bpW, bpH})
		f.add(Block{TCBank(1), decoW + bpW, robH + ratH, tcW, tcH})
		// Extra hopping banks beside bank 1, adjacent to the RAT row.
		for b := 2; b < cfg.TCBanks; b++ {
			f.add(Block{TCBank(b), decoW + bpW + tcW*float64(b-1), robH + ratH, tcW, tcH})
		}
	}

	// ---- UL2 to the right of the frontend ----
	fw := f.frontWidth()
	f.add(Block{UL2, fw, 0, ul2W, ul2H})

	// ---- Clusters in a 2-column grid below ----
	for cl := 0; cl < cfg.Clusters; cl++ {
		col, row := cl%2, cl/2
		ox := float64(col) * clW
		oy := feH + float64(row)*clH
		addCluster(f, cl, ox, oy)
	}

	f.computeAdjacency()
	return f
}

// frontWidth returns the rightmost frontend block edge.
func (f *Floorplan) frontWidth() float64 {
	w := 0.0
	for _, b := range f.Blocks {
		if IsFrontend(b.Name) && b.X+b.W > w {
			w = b.X + b.W
		}
	}
	return w
}

// addCluster lays out the sub-blocks of Figure 10b inside one cluster.
func addCluster(f *Floorplan, cl int, ox, oy float64) {
	rh := clH / 3
	add := func(unit string, x, w float64, row int) {
		f.add(Block{ClusterBlock(cl, unit), ox + x, oy + float64(row)*rh, w, rh})
	}
	// Row 0: DL1 DTLB
	add("DL1", 0, 3.0, 0)
	add("DTLB", 3.0, 2.0, 0)
	// Row 1: FPFU IFU MS/MOB
	add("FPFU", 0, 1.7, 1)
	add("IFU", 1.7, 1.6, 1)
	add("MOB", 3.3, 1.7, 1)
	// Row 2: FPRF IRF FPS CS IS
	add("FPRF", 0, 1.2, 2)
	add("IRF", 1.2, 1.2, 2)
	add("FPS", 2.4, 0.9, 2)
	add("CS", 3.3, 0.8, 2)
	add("IS", 4.1, 0.9, 2)
}

func (f *Floorplan) add(b Block) {
	if _, dup := f.byName[b.Name]; dup {
		panic("floorplan: duplicate block " + b.Name)
	}
	f.byName[b.Name] = len(f.Blocks)
	f.Blocks = append(f.Blocks, b)
}

// Clone returns a deep copy of f.
func (f *Floorplan) Clone() *Floorplan {
	return &Floorplan{Blocks: slices.Clone(f.Blocks), byName: maps.Clone(f.byName), adj: slices.Clone(f.adj)}
}

// Index returns the index of the named block, or -1.
func (f *Floorplan) Index(name string) int {
	if i, ok := f.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the block names in index order.
func (f *Floorplan) Names() []string {
	out := make([]string, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = b.Name
	}
	return out
}

// TotalArea returns the summed block area in mm².
func (f *Floorplan) TotalArea() float64 {
	a := 0.0
	for _, b := range f.Blocks {
		a += b.Area()
	}
	return a
}

// Adjacencies returns the lateral interfaces between blocks.
func (f *Floorplan) Adjacencies() []Adjacency { return f.adj }

const adjEps = 1e-6

// computeAdjacency finds shared edges between all block pairs.
func (f *Floorplan) computeAdjacency() {
	f.adj = nil
	for i := 0; i < len(f.Blocks); i++ {
		for j := i + 1; j < len(f.Blocks); j++ {
			a, b := f.Blocks[i], f.Blocks[j]
			shared := sharedEdge(a, b)
			if shared <= adjEps {
				continue
			}
			dx := a.CenterX() - b.CenterX()
			dy := a.CenterY() - b.CenterY()
			dist := math.Sqrt(dx*dx + dy*dy)
			f.adj = append(f.adj, Adjacency{A: i, B: j, Shared: shared, Dist: dist})
		}
	}
}

// sharedEdge returns the length of the common boundary of two rectangles
// (0 if they only touch at a corner or are apart).
func sharedEdge(a, b Block) float64 {
	// Vertical edges touching: a's right against b's left or vice versa.
	if abs(a.X+a.W-b.X) < adjEps || abs(b.X+b.W-a.X) < adjEps {
		lo := max(a.Y, b.Y)
		hi := min(a.Y+a.H, b.Y+b.H)
		if hi-lo > adjEps {
			return hi - lo
		}
	}
	// Horizontal edges touching.
	if abs(a.Y+a.H-b.Y) < adjEps || abs(b.Y+b.H-a.Y) < adjEps {
		lo := max(a.X, b.X)
		hi := min(a.X+a.W, b.X+b.W)
		if hi-lo > adjEps {
			return hi - lo
		}
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render draws a coarse ASCII map of the floorplan (used by cmd/tempmap).
// Each cell is cellMM millimetres; blocks are labelled by their first two
// letters.
func (f *Floorplan) Render(cellMM float64) string {
	if cellMM <= 0 {
		cellMM = 0.5
	}
	maxX, maxY := 0.0, 0.0
	for _, b := range f.Blocks {
		if b.X+b.W > maxX {
			maxX = b.X + b.W
		}
		if b.Y+b.H > maxY {
			maxY = b.Y + b.H
		}
	}
	w := int(maxX/cellMM) + 1
	h := int(maxY/cellMM) + 1
	grid := make([][]byte, h)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", w))
	}
	for _, b := range f.Blocks {
		label := strings.ToUpper(strings.TrimPrefix(b.Name, "C"))
		label = strings.Map(func(r rune) rune {
			if r == '.' || r == '-' {
				return -1
			}
			return r
		}, label)
		if len(label) < 2 {
			label += " "
		}
		for y := int(b.Y / cellMM); float64(y)*cellMM < b.Y+b.H-adjEps && y < h; y++ {
			for x := int(b.X / cellMM); float64(x)*cellMM < b.X+b.W-adjEps && x < w; x++ {
				idx := (x * 2) % len(label)
				if idx+1 < len(label) {
					grid[y][x] = label[idx]
				} else {
					grid[y][x] = label[0]
				}
			}
		}
	}
	var sb strings.Builder
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}
