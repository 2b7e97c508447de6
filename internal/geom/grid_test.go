package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randomPath builds a pseudo-random walk path from a seeded source.
// Shapes vary from tight zigzags to sweeping loops so the grid sees
// dense and sparse cells, duplicate-ish vertices, and collinear runs.
func randomPath(rng *rand.Rand) *Path {
	n := 2 + rng.Intn(220)
	pts := make([]Vec2, 0, n)
	pos := V(rng.Float64()*200-100, rng.Float64()*200-100)
	heading := rng.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		pts = append(pts, pos)
		heading += (rng.Float64() - 0.5) * 1.2
		step := math.Exp(rng.Float64()*6 - 2) // 0.14 .. 55 m
		if rng.Intn(40) == 0 {
			step *= 100 // occasional long jump -> sparse grid region
		}
		pos = pos.Add(UnitFromAngle(heading).Scale(step))
	}
	p, err := NewPath(pts)
	if err != nil {
		// Degenerate draw (all points collapsed); retry deterministically.
		return randomPath(rng)
	}
	return p
}

// randomQuery draws query points from mixtures that stress the index:
// near the path, on vertices (exact ties between adjacent segments),
// far outside the bounding box, and axis-degenerate positions.
func randomQuery(rng *rand.Rand, p *Path) Vec2 {
	switch rng.Intn(5) {
	case 0: // exactly on a vertex: equidistant tie between two segments
		return p.pts[rng.Intn(len(p.pts))]
	case 1: // near the path
		s := rng.Float64() * p.Length()
		return p.PointAt(s).Add(V(rng.Float64()*4-2, rng.Float64()*4-2))
	case 2: // far outside the grid
		return V(rng.Float64()*2e4-1e4, rng.Float64()*2e4-1e4)
	default: // inside the general bounding region
		return V(rng.Float64()*400-200, rng.Float64()*400-200)
	}
}

func checkEquivalence(t *testing.T, p *Path, q Vec2, hint int) {
	t.Helper()
	li, ls, ll := p.projectLinear(q)
	gi, gs, gl := p.projectIdx(q, hint)
	if li != gi ||
		math.Float64bits(ls) != math.Float64bits(gs) ||
		math.Float64bits(ll) != math.Float64bits(gl) {
		t.Fatalf("projection diverged for q=%v hint=%d (grid=%v):\n  linear: idx=%d station=%x lateral=%x\n  grid:   idx=%d station=%x lateral=%x",
			q, hint, p.grid != nil,
			li, math.Float64bits(ls), math.Float64bits(ll),
			gi, math.Float64bits(gs), math.Float64bits(gl))
	}
}

// TestProjectEquivalence is the deterministic property test behind the
// tentpole claim: for random paths and query points, the grid-indexed
// projection is bit-identical to the linear reference scan, with and
// without a warm-start hint.
func TestProjectEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPath(rng)
		for i := 0; i < 200; i++ {
			q := randomQuery(rng, p)
			checkEquivalence(t, p, q, -1)
			checkEquivalence(t, p, q, rng.Intn(len(p.pts)+4)-2) // hints incl. out of range
		}
	}
	// Warm projectors tracking a moving actor along the Town5
	// reference line, on it and at lane (±3.5 m) and off-road (±20 m)
	// offsets: the hint path and the per-cell prune in steady state.
	p := town5Reference()
	if p.grid == nil {
		t.Fatal("Town5 reference is not gridded")
	}
	for _, off := range []float64{0, 3.5, -3.5, 20, -20} {
		pr := NewProjector(p)
		rng := rand.New(rand.NewSource(int64(off * 10)))
		for s := -5.0; s < p.Length()+5; s += 0.3 {
			pose := p.PoseAt(s)
			q := pose.Pos.Add(pose.Forward().Perp().Scale(off + rng.Float64()*0.2 - 0.1))
			checkEquivalence(t, p, q, pr.hint)
			_, ls, ll := p.projectLinear(q)
			ws, wl := pr.Project(q)
			if math.Float64bits(ws) != math.Float64bits(ls) || math.Float64bits(wl) != math.Float64bits(ll) {
				t.Fatalf("offset %v station %v: projector (%v, %v) != linear (%v, %v)", off, s, ws, wl, ls, ll)
			}
		}
	}
}

// town5Reference is the reference line of world.Town5: the route the
// driver, the trace recorder and the lane sensor project onto.
func town5Reference() *Path {
	return NewPathBuilder(Pose{}).
		Straight(400).
		Arc(220, -math.Pi/4).
		Straight(300).
		Arc(180, math.Pi/3).
		Straight(450).
		MustBuild()
}

// TestProjectEquivalenceNonFinite covers NaN and infinite queries: both
// search paths must agree (no segment wins a comparison against NaN, so
// both return station=0, lateral=0).
func TestProjectEquivalenceNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomPath(rng)
	if p.grid == nil {
		t.Fatalf("expected a gridded path for this seed")
	}
	nan := math.NaN()
	inf := math.Inf(1)
	for _, q := range []Vec2{
		{nan, nan}, {nan, 0}, {0, nan},
		{inf, 0}, {0, -inf}, {inf, -inf}, {nan, inf},
	} {
		checkEquivalence(t, p, q, -1)
		checkEquivalence(t, p, q, 3)
	}
}

// TestNonFinitePathSkipsGrid: a path with non-finite vertices cannot be
// indexed; construction must fall back to the linear scan rather than
// build a grid over a meaningless bounding box.
func TestNonFinitePathSkipsGrid(t *testing.T) {
	pts := make([]Vec2, 0, 24)
	for i := 0; i < 24; i++ {
		pts = append(pts, V(float64(i), 0))
	}
	pts[10].Y = math.NaN()
	p, err := NewPath(pts)
	if err != nil {
		t.Fatal(err)
	}
	if p.grid != nil {
		t.Fatalf("grid built over non-finite vertices")
	}
	// Queries still answer through the linear scan.
	checkEquivalence(t, p, V(5, 1), -1)
}

func TestSmallPathSkipsGrid(t *testing.T) {
	p := MustPath([]Vec2{V(0, 0), V(10, 0), V(10, 10)})
	if p.grid != nil {
		t.Fatalf("grid built for a %d-segment path", len(p.pts)-1)
	}
	s, lat := p.Project(V(5, 1))
	if s != 5 || lat != 1 {
		t.Fatalf("Project = (%v, %v), want (5, 1)", s, lat)
	}
}

// TestProjectorWarmStart drives a Projector along a continuous query
// trajectory (the intended usage pattern) interleaved with teleports,
// and asserts every answer matches the stateless Path.Project bits.
func TestProjectorWarmStart(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p := randomPath(rng)
		pr := NewProjector(p)
		q := p.PointAt(0)
		for i := 0; i < 300; i++ {
			if rng.Intn(25) == 0 {
				q = randomQuery(rng, p) // teleport: stale hint must not matter
			} else {
				q = q.Add(V(rng.Float64()*2-1, rng.Float64()*2-1))
			}
			ws, wl := pr.Project(q)
			ss, sl := p.Project(q)
			if math.Float64bits(ws) != math.Float64bits(ss) ||
				math.Float64bits(wl) != math.Float64bits(sl) {
				t.Fatalf("seed %d step %d: warm-start (%x, %x) != stateless (%x, %x) at %v",
					seed, i, math.Float64bits(ws), math.Float64bits(wl),
					math.Float64bits(ss), math.Float64bits(sl), q)
			}
		}
	}
}

// TestCursorEquivalence drives a Cursor over mostly-monotone stations
// with occasional jumps and asserts bit-identity with the stateless
// Path lookups.
func TestCursorEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		p := randomPath(rng)
		cur := NewCursor(p)
		s := 0.0
		for i := 0; i < 400; i++ {
			switch rng.Intn(10) {
			case 0:
				s = rng.Float64()*p.Length()*1.2 - 0.1*p.Length() // jump, incl. out of range
			case 1:
				s -= rng.Float64() * 3 // brief reversal
			default:
				s += rng.Float64() * 2
			}
			if gp, wp := cur.PointAt(s), p.PointAt(s); gp != wp {
				t.Fatalf("seed %d: PointAt(%v) = %v, want %v", seed, s, gp, wp)
			}
			if gh, wh := cur.HeadingAt(s), p.HeadingAt(s); math.Float64bits(gh) != math.Float64bits(wh) {
				t.Fatalf("seed %d: HeadingAt(%v) = %v, want %v", seed, s, gh, wh)
			}
			if gp, wp := cur.PoseAt(s), p.PoseAt(s); gp != wp {
				t.Fatalf("seed %d: PoseAt(%v) = %v, want %v", seed, s, gp, wp)
			}
			if gc, wc := cur.CurvatureAt(s), p.CurvatureAt(s); math.Float64bits(gc) != math.Float64bits(wc) {
				t.Fatalf("seed %d: CurvatureAt(%v) = %v, want %v", seed, s, gc, wc)
			}
		}
	}
}

// FuzzProjectEquivalence lets the fuzzer hunt for a (path, query, hint)
// triple where the indexed projection diverges from the linear scan.
// The path is derived deterministically from the seed so the corpus
// stays reproducible.
func FuzzProjectEquivalence(f *testing.F) {
	f.Add(int64(1), 10.0, -3.0, -1)
	f.Add(int64(2), 0.0, 0.0, 0)
	f.Add(int64(3), 1e9, -1e9, 7)
	f.Add(int64(4), math.Inf(1), 2.0, 2)
	f.Add(int64(5), math.NaN(), math.NaN(), -1)
	f.Fuzz(func(t *testing.T, seed int64, qx, qy float64, hint int) {
		rng := rand.New(rand.NewSource(seed))
		p := randomPath(rng)
		checkEquivalence(t, p, V(qx, qy), hint)
	})
}
