package geom

import (
	"fmt"
	"math"
	"sort"
)

// Path is an arc-length parameterized polyline. It is the backbone of
// lane centerlines: positions along a lane are addressed by the distance s
// travelled from the path start ("station"), exactly as road coordinates
// are used in OpenDRIVE-style maps.
//
// Build a Path with NewPath (from explicit points) or with a PathBuilder
// (straights and arcs). A Path is immutable after construction.
type Path struct {
	pts []Vec2
	// cum[i] is the arc length from pts[0] to pts[i]; cum[0] == 0.
	cum []float64
	// grid accelerates Project; nil for small or non-finite paths
	// (queries then use the linear scan). Immutable after construction,
	// so concurrent queries are safe.
	grid *segGrid
}

// NewPath constructs a path through the given points. Consecutive
// duplicate points are dropped. NewPath returns an error when fewer than
// two distinct points remain.
func NewPath(points []Vec2) (*Path, error) {
	pts := make([]Vec2, 0, len(points))
	for _, p := range points {
		if len(pts) > 0 && p.DistSq(pts[len(pts)-1]) < 1e-18 {
			continue
		}
		pts = append(pts, p)
	}
	if len(pts) < 2 {
		return nil, fmt.Errorf("geom: path needs at least 2 distinct points, got %d", len(pts))
	}
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		cum[i] = cum[i-1] + pts[i].Dist(pts[i-1])
	}
	return &Path{pts: pts, cum: cum, grid: buildSegGrid(pts, cum[len(cum)-1])}, nil
}

// MustPath is NewPath but panics on error. For use in map construction
// code where the inputs are compile-time constants.
func MustPath(points []Vec2) *Path {
	p, err := NewPath(points)
	if err != nil {
		panic(err)
	}
	return p
}

// Length returns the total arc length of the path in metres.
func (p *Path) Length() float64 { return p.cum[len(p.cum)-1] }

// Bounds returns the axis-aligned bounding box of the path. Segments
// are straight, so the hull of the vertices contains the whole
// polyline.
func (p *Path) Bounds() AABB {
	out := AABB{Min: p.pts[0], Max: p.pts[0]}
	for _, v := range p.pts[1:] {
		out.Min.X = math.Min(out.Min.X, v.X)
		out.Min.Y = math.Min(out.Min.Y, v.Y)
		out.Max.X = math.Max(out.Max.X, v.X)
		out.Max.Y = math.Max(out.Max.Y, v.Y)
	}
	return out
}

// Points returns a copy of the path's vertices.
func (p *Path) Points() []Vec2 {
	out := make([]Vec2, len(p.pts))
	copy(out, p.pts)
	return out
}

// segmentAt locates the polyline segment containing station s and returns
// the segment index plus the distance into the segment. s is clamped to
// [0, Length].
func (p *Path) segmentAt(s float64) (int, float64) {
	if s <= 0 {
		return 0, 0
	}
	if s >= p.Length() {
		last := len(p.pts) - 2
		return last, p.cum[last+1] - p.cum[last]
	}
	// Binary search for the first cum > s, then step back one.
	i := sort.SearchFloat64s(p.cum, s)
	if i > 0 && p.cum[i] > s || i == len(p.cum) {
		i--
	}
	if i >= len(p.pts)-1 {
		i = len(p.pts) - 2
	}
	return i, s - p.cum[i]
}

// segmentAtHint is segmentAt seeded with a candidate segment index.
// When the station falls inside the hinted segment (or the one after
// it), the binary search is skipped entirely; the result is identical
// either way, since for s in (0, Length) there is exactly one i with
// cum[i] <= s < cum[i+1].
func (p *Path) segmentAtHint(s float64, hint int) (int, float64) {
	if s > 0 && s < p.Length() && hint >= 0 && hint <= len(p.pts)-2 && p.cum[hint] <= s {
		if s < p.cum[hint+1] {
			return hint, s - p.cum[hint]
		}
		if hint+1 <= len(p.pts)-2 && s < p.cum[hint+2] {
			return hint + 1, s - p.cum[hint+1]
		}
	}
	return p.segmentAt(s)
}

// pointAtSeg returns the world position at distance into segment i.
func (p *Path) pointAtSeg(i int, into float64) Vec2 {
	dir := p.pts[i+1].Sub(p.pts[i]).Norm()
	return p.pts[i].Add(dir.Scale(into))
}

// headingAtSeg returns the tangent direction of segment i.
func (p *Path) headingAtSeg(i int) float64 {
	return p.pts[i+1].Sub(p.pts[i]).Angle()
}

// PointAt returns the world position at station s. s is clamped to the
// path's extent.
func (p *Path) PointAt(s float64) Vec2 {
	i, into := p.segmentAt(s)
	return p.pointAtSeg(i, into)
}

// HeadingAt returns the tangent direction (radians) at station s.
func (p *Path) HeadingAt(s float64) float64 {
	i, _ := p.segmentAt(s)
	return p.headingAtSeg(i)
}

// PoseAt returns the pose (position + tangent heading) at station s.
func (p *Path) PoseAt(s float64) Pose {
	return Pose{Pos: p.PointAt(s), Yaw: p.HeadingAt(s)}
}

// Project finds the station of the point on the path closest to q and the
// signed lateral offset of q from the path (positive = left of travel
// direction). Large paths answer through the spatial index; the result
// is bit-identical to the linear scan (see projState).
func (p *Path) Project(q Vec2) (station, lateral float64) {
	_, station, lateral = p.projectIdx(q, -1)
	return station, lateral
}

// projState accumulates the running minimum of a projection query. The
// winner is the lexicographic minimum of (distance, segment index),
// which is exactly what the original linear scan's strict-less update
// produced: the first segment to reach the minimal distance wins.
//
// Only the winner's squared distance and clamped segment parameter are
// kept; its station and lateral offset are derived once, by result.
type projState struct {
	bestD   float64
	bestIdx int
	bestT   float64
}

func newProjState() projState {
	return projState{bestD: math.Inf(1), bestIdx: -1}
}

// considerSeg folds segment i into the running minimum. It computes
// only what the comparison needs — the clamped projection parameter t
// and the squared distance. Both the linear reference scan and the
// grid-indexed search funnel every candidate through this one helper,
// so the two code paths execute the same float operations on the
// winning segment — the foundation of the bit-identity the
// equivalence tests assert.
func (p *Path) considerSeg(st *projState, i int, q Vec2) {
	a, b := p.pts[i], p.pts[i+1]
	ab := b.Sub(a)
	t := Clamp(q.Sub(a).Dot(ab)/ab.LenSq(), 0, 1)
	d := q.DistSq(a.Add(ab.Scale(t)))
	if d < st.bestD || (d == st.bestD && i < st.bestIdx) { //lint:allow floateq exact tie-break on equal squared distance: the lower segment index must win, matching the linear scan's first-minimum rule bit for bit
		st.bestD = d
		st.bestIdx = i
		st.bestT = t
	}
}

// result returns the winning segment with the station and signed
// lateral offset (positive = left of the segment direction) of q's
// projection onto it, or (-1, 0, 0) when no segment yielded a finite
// comparison (NaN inputs).
func (p *Path) result(st *projState, q Vec2) (idx int, station, lateral float64) {
	i := st.bestIdx
	if i < 0 {
		return -1, 0, 0
	}
	a, b := p.pts[i], p.pts[i+1]
	ab := b.Sub(a)
	station = p.cum[i] + ab.Len()*st.bestT
	lateral = math.Sqrt(st.bestD)
	if ab.Cross(q.Sub(a)) < 0 {
		lateral = -lateral
	}
	return i, station, lateral
}

// projectLinear is the reference full scan. It is the semantic ground
// truth the indexed query is tested against, and the fallback for small
// or non-finite paths.
func (p *Path) projectLinear(q Vec2) (idx int, station, lateral float64) {
	st := newProjState()
	for i := 0; i < len(p.pts)-1; i++ {
		p.considerSeg(&st, i, q)
	}
	return p.result(&st, q)
}

// projectIdx answers a projection query, optionally seeded with a hint
// segment (a previous query's winner; actors move continuously, so the
// previous projection localizes the next one and tightens the pruning
// bound immediately). hint < 0 means no seed. The returned idx is the
// winning segment, or -1 when no segment yields a finite comparison
// (NaN inputs); station and lateral are then 0, as in the linear scan.
func (p *Path) projectIdx(q Vec2, hint int) (idx int, station, lateral float64) {
	if p.grid == nil {
		return p.projectLinear(q)
	}
	st := newProjState()
	if hint >= 0 && hint < len(p.pts)-1 {
		p.considerSeg(&st, hint, q)
	}
	p.walk(&st, q)
	return p.result(&st, q)
}

// walk completes a gridded projection query: it scans Chebyshev rings
// outward from q's cell until the ring bound exceeds the pruning
// threshold of st's best. st may arrive seeded with any candidates (a
// hint, a Projector's neighbour list); seeds only tighten the initial
// bound, so on return st holds the exact (distance, index) minimum over
// every segment.
func (p *Path) walk(st *projState, q Vec2) {
	g := p.grid
	cx := g.cellX(q.X)
	cy := g.cellY(q.Y)
	maxR := max(cx, g.nx-1-cx, cy, g.ny-1-cy)
	for r := 0; r <= maxR; r++ {
		// Cells at ring >= r are at least this far away; once even
		// that bound is beyond the pruning threshold, no remaining
		// segment can win or tie.
		if r > 0 && g.ringDistSq(q, cx, cy, r) > g.pruneLimit(st.bestD) {
			break
		}
		p.scanRing(st, q, cx, cy, r)
	}
}

// scanRing evaluates the segments registered in the cells of Chebyshev
// ring r around (cx, cy), clipped to the grid.
func (p *Path) scanRing(st *projState, q Vec2, cx, cy, r int) {
	g := p.grid
	if r == 0 {
		p.scanCell(st, q, cx, cy)
		return
	}
	x0, x1 := cx-r, cx+r
	y0, y1 := cy-r, cy+r
	for _, iy := range [2]int{y0, y1} {
		if iy < 0 || iy >= g.ny {
			continue
		}
		for ix := max(x0, 0); ix <= min(x1, g.nx-1); ix++ {
			p.scanCell(st, q, ix, iy)
		}
	}
	for _, ix := range [2]int{x0, x1} {
		if ix < 0 || ix >= g.nx {
			continue
		}
		for iy := max(y0+1, 0); iy <= min(y1-1, g.ny-1); iy++ {
			p.scanCell(st, q, ix, iy)
		}
	}
}

// scanCell evaluates the segments registered in one cell, unless the
// cell is empty or lies beyond the pruning threshold. A segment
// spanning several cells is re-evaluated harmlessly: considerSeg is
// pure and the tie-break ignores an index it has already chosen.
func (p *Path) scanCell(st *projState, q Vec2, ix, iy int) {
	g := p.grid
	c := iy*g.nx + ix
	lo, hi := g.start[c], g.start[c+1]
	if lo == hi || g.cellDistSq(q, ix, iy) > g.pruneLimit(st.bestD) {
		return
	}
	for _, si := range g.items[lo:hi] {
		p.considerSeg(st, int(si), q)
	}
}

// CurvatureAt estimates signed curvature (1/m) at station s using the
// change of heading over a small window. Positive curvature turns left.
func (p *Path) CurvatureAt(s float64) float64 {
	const h = 0.5 // metres
	s0 := Clamp(s-h, 0, p.Length())
	s1 := Clamp(s+h, 0, p.Length())
	if s1-s0 < 1e-9 {
		return 0
	}
	return AngleDiff(p.HeadingAt(s1), p.HeadingAt(s0)) / (s1 - s0)
}

// Offset returns a new path displaced laterally by d metres (positive =
// left of travel direction). Used to derive parallel lanes from a
// reference line. The offset path has the same vertex count.
func (p *Path) Offset(d float64) *Path {
	pts := make([]Vec2, len(p.pts))
	for i := range p.pts {
		var dir Vec2
		switch {
		case i == 0:
			dir = p.pts[1].Sub(p.pts[0])
		case i == len(p.pts)-1:
			dir = p.pts[i].Sub(p.pts[i-1])
		default:
			dir = p.pts[i+1].Sub(p.pts[i-1])
		}
		pts[i] = p.pts[i].Add(dir.Norm().Perp().Scale(d))
	}
	return MustPath(pts)
}

// PathBuilder assembles a path from straight and arc segments, tracking
// the pen's pose. Headings are tangent-continuous by construction.
type PathBuilder struct {
	pose Pose
	pts  []Vec2
	step float64 // arc tessellation step in metres
}

// NewPathBuilder starts a builder at the given pose. Arcs are tessellated
// at roughly 1 m spacing.
func NewPathBuilder(start Pose) *PathBuilder {
	return &PathBuilder{pose: start, pts: []Vec2{start.Pos}, step: 1}
}

// Pose returns the builder's current pen pose.
func (b *PathBuilder) Pose() Pose { return b.pose }

// Straight extends the path by length metres along the current heading.
func (b *PathBuilder) Straight(length float64) *PathBuilder {
	if length <= 0 {
		return b
	}
	b.pose.Pos = b.pose.Pos.Add(b.pose.Forward().Scale(length))
	b.pts = append(b.pts, b.pose.Pos)
	return b
}

// Arc extends the path along a circular arc of the given radius, turning
// by angle radians (positive = left). The arc is tessellated.
func (b *PathBuilder) Arc(radius, angle float64) *PathBuilder {
	if radius <= 0 || angle == 0 { //lint:allow floateq exact-zero angle is the no-op sentinel; any nonzero angle, however small, is a real arc
		return b
	}
	arcLen := math.Abs(angle) * radius
	n := int(math.Ceil(arcLen / b.step))
	if n < 2 {
		n = 2
	}
	// Center of the turn circle is perpendicular to heading.
	side := 1.0
	if angle < 0 {
		side = -1
	}
	center := b.pose.Pos.Add(b.pose.Forward().Perp().Scale(side * radius))
	start := b.pose.Pos.Sub(center)
	for i := 1; i <= n; i++ {
		a := angle * float64(i) / float64(n)
		b.pts = append(b.pts, center.Add(start.Rotate(a)))
	}
	b.pose.Pos = b.pts[len(b.pts)-1]
	b.pose.Yaw = NormalizeAngle(b.pose.Yaw + angle)
	return b
}

// Build finalizes the path. The builder must have accumulated at least
// one segment.
func (b *PathBuilder) Build() (*Path, error) {
	return NewPath(b.pts)
}

// MustBuild is Build but panics on error.
func (b *PathBuilder) MustBuild() *Path {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
