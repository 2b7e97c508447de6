package geom

import "math"

// segGrid is a uniform spatial index over the segments of a Path. Each
// grid cell lists the indices of every segment whose geometry intersects
// the cell, so a nearest-point query only has to examine the segments
// near the query point instead of scanning the whole polyline.
//
// The index is an accelerator, never an oracle: queries evaluate
// candidate segments with the exact same float operations as the linear
// reference scan (Path.considerSeg) and only skip cells whose
// lower-bound distance exceeds the best distance found so far by a
// margin that covers rounding (pruneLimit). A skipped segment
// therefore cannot win — or even tie — the min-distance comparison,
// which is why the indexed result is bit-identical to the linear scan
// (see DESIGN.md §8 and the equivalence tests in grid_test.go).
type segGrid struct {
	originX, originY float64
	cell             float64 // cell edge length, metres
	invCell          float64
	nx, ny           int
	// slack is the absolute pruning margin (metres), proportional to
	// the magnitude of the grid's coordinates; see pruneLimit.
	slack float64
	// CSR layout: items[start[c] : start[c+1]] lists the segment
	// indices registered in cell c, with c = iy*nx + ix. Segments are
	// registered in every cell they pass through (conservative x-slab
	// rasterization), so duplicates across cells are expected; queries
	// tolerate re-evaluating a segment because considerSeg is pure.
	start []int32
	items []int32
}

const (
	// gridMinSegments is the path size below which the linear scan is
	// already fast enough that the index is not built.
	gridMinSegments = 16
	// gridMaxCells bounds the index memory for very large or very
	// skewed paths.
	gridMaxCells = 1 << 14
)

// buildSegGrid constructs the index for a path's points, or returns nil
// when the path is too small or not finite (queries then fall back to
// the linear scan, which handles NaN/Inf coordinates by construction).
func buildSegGrid(pts []Vec2, totalLen float64) *segGrid {
	n := len(pts) - 1
	if n < gridMinSegments {
		return nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	ext := math.Max(w, h)
	avg := totalLen / float64(n)
	cell := math.Max(2*avg, ext/128)
	if !isFinite(cell) || cell <= 0 || !isFinite(minX) || !isFinite(minY) {
		return nil
	}
	g := &segGrid{originX: minX, originY: minY}
	for {
		g.cell = cell
		g.invCell = 1 / cell
		g.nx = int(w/cell) + 1
		g.ny = int(h/cell) + 1
		if g.nx*g.ny <= gridMaxCells {
			break
		}
		cell *= 2
	}
	g.slack = 1e-9 * max(math.Abs(minX), math.Abs(minY),
		math.Abs(minX+float64(g.nx)*g.cell), math.Abs(minY+float64(g.ny)*g.cell))

	// Two-pass CSR fill: count registrations per cell, prefix-sum, then
	// place the segment indices.
	counts := make([]int32, g.nx*g.ny+1)
	for i := 0; i < n; i++ {
		g.rasterize(pts[i], pts[i+1], func(c int) { counts[c+1]++ })
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	g.start = counts
	g.items = make([]int32, counts[len(counts)-1])
	fill := make([]int32, g.nx*g.ny)
	for i := 0; i < n; i++ {
		g.rasterize(pts[i], pts[i+1], func(c int) {
			g.items[g.start[c]+fill[c]] = int32(i)
			fill[c]++
		})
	}
	return g
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// rasterize visits every cell the segment a→b passes through, by
// column slabs: for each cell column overlapping the segment's X
// extent, the parameter interval of the segment inside the slab bounds
// its Y extent there, which selects the rows. The parameter interval is
// widened by a small epsilon so boundary-grazing rounding errors can
// only add neighbouring cells (a superset is always safe — queries
// re-evaluate candidates exactly).
func (g *segGrid) rasterize(a, b Vec2, visit func(c int)) {
	ix0 := g.cellX(math.Min(a.X, b.X))
	ix1 := g.cellX(math.Max(a.X, b.X))
	dx := b.X - a.X
	for ix := ix0; ix <= ix1; ix++ {
		tLo, tHi := 0.0, 1.0
		if ix0 != ix1 {
			slabLo := g.originX + float64(ix)*g.cell
			t0 := (slabLo - a.X) / dx
			t1 := (slabLo + g.cell - a.X) / dx
			if t0 > t1 {
				t0, t1 = t1, t0
			}
			tLo = math.Max(0, t0-1e-9)
			tHi = math.Min(1, t1+1e-9)
			if tLo > tHi {
				continue
			}
		}
		yA := a.Y + (b.Y-a.Y)*tLo
		yB := a.Y + (b.Y-a.Y)*tHi
		iy0 := g.cellY(math.Min(yA, yB))
		iy1 := g.cellY(math.Max(yA, yB))
		for iy := iy0; iy <= iy1; iy++ {
			visit(iy*g.nx + ix)
		}
	}
}

// cellX maps a world X coordinate to a clamped cell column. NaN maps to
// 0 deterministically.
func (g *segGrid) cellX(x float64) int {
	return clampCell((x-g.originX)*g.invCell, g.nx)
}

// cellY maps a world Y coordinate to a clamped cell row.
func (g *segGrid) cellY(y float64) int {
	return clampCell((y-g.originY)*g.invCell, g.ny)
}

func clampCell(v float64, n int) int {
	if !(v > 0) { // NaN and negatives land in the first cell
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// pruneLimit is the squared distance beyond which a region cannot hold
// a segment that wins or ties against best: a region is skipped only
// when its squared lower-bound distance exceeds it. A candidate's squared
// distance and a region's bound are rounded by different operations
// (segment point vs cell edge), and far from the grid the two can round
// apart by an ulp of the query's magnitude, so an exact bound would
// prune a tying segment. The threshold therefore widens sqrt(best) by a
// relative margin, for the rounding of the subtractions and squares,
// and by the grid's absolute slack, for the rounding of segment points
// and cell edges. Both are orders of magnitude above the rounding and
// far below any distance that matters for pruning.
func (g *segGrid) pruneLimit(best float64) float64 {
	s := math.Sqrt(best)*(1+pruneRel) + g.slack
	return s * s
}

// pruneRel is pruneLimit's relative margin; Projector's certificate
// applies the same margin.
const pruneRel = 1e-9

// ringDistSq returns a lower bound on the squared distance from q to
// any unscanned cell — a cell at Chebyshev ring r or beyond around
// (cx, cy), r >= 1. Every registered segment lies inside the union of
// its cells, and every unscanned cell lies inside the grid's bounding
// box but outside the box covering rings 0..r-1, so the distance from q
// to that difference region bounds every segment not yet considered.
// The region is at most four axis-aligned slabs (the parts of the grid
// box left/right/below/above the scanned box), each an exact
// point-to-AABB distance. +Inf when the rings already cover the whole
// grid; this formulation also prunes for queries *outside* the grid
// box, where a bound against the scanned box alone would stay zero
// forever and the search would degenerate to visiting every cell.
func (g *segGrid) ringDistSq(q Vec2, cx, cy, r int) float64 {
	gx1 := g.originX + float64(g.nx)*g.cell
	gy1 := g.originY + float64(g.ny)*g.cell
	bx0 := g.originX + float64(cx-(r-1))*g.cell
	bx1 := g.originX + float64(cx+r)*g.cell
	by0 := g.originY + float64(cy-(r-1))*g.cell
	by1 := g.originY + float64(cy+r)*g.cell
	best := math.Inf(1)
	if bx0 > g.originX { // slab left of the scanned box
		best = min(best, rectDistSq(q, g.originX, g.originY, bx0, gy1))
	}
	if bx1 < gx1 { // slab right of the scanned box
		best = min(best, rectDistSq(q, bx1, g.originY, gx1, gy1))
	}
	if by0 > g.originY { // strip below
		best = min(best, rectDistSq(q, g.originX, g.originY, gx1, by0))
	}
	if by1 < gy1 { // strip above
		best = min(best, rectDistSq(q, g.originX, by1, gx1, gy1))
	}
	return best
}

// cellDistSq returns the squared distance from q to cell (ix, iy).
func (g *segGrid) cellDistSq(q Vec2, ix, iy int) float64 {
	x0 := g.originX + float64(ix)*g.cell
	y0 := g.originY + float64(iy)*g.cell
	return rectDistSq(q, x0, y0, x0+g.cell, y0+g.cell)
}

// rectDistSq is the squared Euclidean distance from q to the
// axis-aligned rectangle [x0,x1]×[y0,y1]; zero inside. NaN coordinates
// propagate to a NaN result, which the caller's strict > comparison
// treats as "no bound" — NaN queries scan everything, exactly like the
// linear path.
func rectDistSq(q Vec2, x0, y0, x1, y1 float64) float64 {
	dx := max(0, x0-q.X, q.X-x1)
	dy := max(0, y0-q.Y, q.Y-y1)
	return dx*dx + dy*dy
}

// rectDist is the Euclidean distance from q to the rectangle.
func rectDist(q Vec2, x0, y0, x1, y1 float64) float64 {
	return math.Sqrt(rectDistSq(q, x0, y0, x1, y1))
}
