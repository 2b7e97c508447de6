package geom

import (
	"math"
	"slices"
)

// Projector answers repeated nearest-point queries against one path
// from a neighbour list. Each time it rebuilds, it runs the indexed
// query (seeded with the previous winner) at an anchor a = q and keeps
// every segment within reach R = |lateral| + projectorSkin of a. A
// later query evaluates only the listed segments, and the answer stands
// when the certificate
//
//	(√best + |q−a|)·(1+pruneRel) + 2·slack < R
//
// holds: every unlisted segment is then strictly farther from q than
// the listed winner, so the listed (distance, index) minimum is the
// global one. Actors move continuously, so most queries are answered
// from a handful of listed segments; a failed certificate, or a NaN/±Inf
// query, falls back to the ring walk (seeded with the listed minimum)
// and rebuilds the list.
//
// The list is purely an accelerator — results are bit-identical to
// Path.Project for any query history (DESIGN.md §8, invariant 4). A
// warm Project allocates nothing. Projector is not safe for concurrent
// use; give each consumer its own.
type Projector struct {
	p    *Path
	hint int
	// list holds the segment indices within reach of anchor, ascending.
	// It is empty before the first rebuild and when the reach covers too
	// many cells to be worth listing; an empty list leaves best at +Inf,
	// which never passes the certificate.
	list   []int32
	anchor Vec2
	reach  float64
	// buf backs list until it outgrows it, so a new projector's first
	// rebuilds allocate nothing.
	buf [32]int32
}

const (
	// projectorSkin is the reach beyond the anchor's own distance to the
	// path: a query may drift this far (less the change in its
	// distance) from the anchor before the list must be rebuilt.
	projectorSkin = 4.0 // metres
	// projectorMaxCells caps the grid cells a rebuild gathers; a reach
	// wider than that (queries far off the path) keeps no list.
	projectorMaxCells = 256
)

// NewProjector creates a projector over the path.
func NewProjector(p *Path) *Projector {
	pr := &Projector{p: p, hint: -1}
	pr.list = pr.buf[:0]
	return pr
}

// Path returns the projected-onto path.
func (pr *Projector) Path() *Path { return pr.p }

// Project is Path.Project answered from the neighbour list when its
// certificate holds.
func (pr *Projector) Project(q Vec2) (station, lateral float64) {
	p := pr.p
	g := p.grid
	if g == nil {
		_, station, lateral = p.projectLinear(q)
		return station, lateral
	}
	st := newProjState()
	for _, si := range pr.list {
		p.considerSeg(&st, int(si), q)
	}
	if (math.Sqrt(st.bestD)+math.Sqrt(q.DistSq(pr.anchor)))*(1+pruneRel)+2*g.slack < pr.reach {
		pr.hint = st.bestIdx
		_, station, lateral = p.result(&st, q)
		return station, lateral
	}
	if pr.hint >= 0 {
		p.considerSeg(&st, pr.hint, q)
	}
	p.walk(&st, q)
	pr.rebuild(q, st.bestD)
	idx, station, lateral := p.result(&st, q)
	if idx >= 0 {
		pr.hint = idx
	}
	return station, lateral
}

// rebuild anchors the list at a, whose squared distance to the path is
// best: of the segments registered in every cell within the reach's
// pruning limit, it keeps those whose squared distance from a —
// computed by considerSeg, as queries compute it — is within the limit,
// in ascending order without duplicates. A segment left out is
// therefore farther than the reach from a by the pruneLimit margins,
// which is what the certificate in Project relies on.
func (pr *Projector) rebuild(a Vec2, best float64) {
	p, g := pr.p, pr.p.grid
	pr.list = pr.list[:0]
	pr.reach = math.Sqrt(best) + projectorSkin
	if !(pr.reach < math.Inf(1)) { // no winner (NaN/±Inf query) or overflow
		return
	}
	limit := g.pruneLimit(pr.reach * pr.reach)
	r := math.Sqrt(limit)
	// One extra cell on each side keeps every cell within the limit in
	// the box whatever the rounding of the box edges; the per-cell test
	// below drops the cells that are not.
	ix0, ix1 := max(g.cellX(a.X-r)-1, 0), min(g.cellX(a.X+r)+1, g.nx-1)
	iy0, iy1 := max(g.cellY(a.Y-r)-1, 0), min(g.cellY(a.Y+r)+1, g.ny-1)
	if (ix1-ix0+1)*(iy1-iy0+1) > projectorMaxCells {
		return
	}
	list := pr.list
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			if g.cellDistSq(a, ix, iy) > limit {
				continue
			}
			c := iy*g.nx + ix
			for _, si := range g.items[g.start[c]:g.start[c+1]] {
				st := newProjState()
				p.considerSeg(&st, int(si), a)
				if st.bestD <= limit {
					list = append(list, si)
				}
			}
		}
	}
	slices.Sort(list)
	pr.list = slices.Compact(list)
	pr.anchor = a
}

// Cursor answers repeated station-based lookups (PointAt, HeadingAt,
// PoseAt, CurvatureAt) against one path with a warm-start segment hint,
// skipping the binary search when consecutive stations fall in the same
// or the following segment — the access pattern of a rail actor or a
// driver's preview point. Results are bit-identical to the Path
// methods; the hint only short-circuits the segment lookup, whose
// result is unique for any station. Not safe for concurrent use.
type Cursor struct {
	p    *Path
	hint int
}

// NewCursor creates a cursor over the path.
func NewCursor(p *Path) Cursor { return Cursor{p: p, hint: -1} }

// Path returns the underlying path.
func (c *Cursor) Path() *Path { return c.p }

func (c *Cursor) seg(s float64) (int, float64) {
	i, into := c.p.segmentAtHint(s, c.hint)
	c.hint = i
	return i, into
}

// PointAt is Path.PointAt with the warm-start hint.
func (c *Cursor) PointAt(s float64) Vec2 {
	i, into := c.seg(s)
	return c.p.pointAtSeg(i, into)
}

// HeadingAt is Path.HeadingAt with the warm-start hint.
func (c *Cursor) HeadingAt(s float64) float64 {
	i, _ := c.seg(s)
	return c.p.headingAtSeg(i)
}

// PoseAt is Path.PoseAt with the warm-start hint and a single segment
// lookup for both position and heading.
func (c *Cursor) PoseAt(s float64) Pose {
	i, into := c.seg(s)
	return Pose{Pos: c.p.pointAtSeg(i, into), Yaw: c.p.headingAtSeg(i)}
}

// CurvatureAt is Path.CurvatureAt with the warm-start hint.
func (c *Cursor) CurvatureAt(s float64) float64 {
	const h = 0.5 // metres
	s0 := Clamp(s-h, 0, c.p.Length())
	s1 := Clamp(s+h, 0, c.p.Length())
	if s1-s0 < 1e-9 {
		return 0
	}
	return AngleDiff(c.HeadingAt(s1), c.HeadingAt(s0)) / (s1 - s0)
}
