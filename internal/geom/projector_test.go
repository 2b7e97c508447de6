package geom

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// walkStep moves a query the way an actor, a sensor or a hostile caller
// does: mostly a step of 1 cm to 10 m (log-uniform) along a slowly
// turning heading, sometimes a reversal, a teleport, or a non-finite
// query.
func walkStep(rng *rand.Rand, p *Path, q Vec2, heading *float64) Vec2 {
	switch k := rng.Intn(100); {
	case k < 3:
		return randomQuery(rng, p)
	case k < 4:
		return []Vec2{
			{math.NaN(), q.Y}, {q.X, math.NaN()},
			{math.Inf(1), q.Y}, {q.X, math.Inf(-1)},
		}[rng.Intn(4)]
	case k < 10:
		*heading += math.Pi
	}
	if !isFinite(q.X) || !isFinite(q.Y) {
		return randomQuery(rng, p)
	}
	*heading += (rng.Float64() - 0.5) * 0.3
	step := math.Exp(rng.Float64()*math.Log(1000)) * 0.01 // 1 cm .. 10 m
	return q.Add(UnitFromAngle(*heading).Scale(step))
}

// checkProjector asserts one warm query against the linear reference
// scan, bit for bit. It reports whether the neighbour list answered
// (the query did not move the anchor).
func checkProjector(t *testing.T, pr *Projector, q Vec2) bool {
	t.Helper()
	anchor, listed := pr.anchor, len(pr.list) > 0
	_, ls, ll := pr.p.projectLinear(q)
	ws, wl := pr.Project(q)
	if math.Float64bits(ws) != math.Float64bits(ls) || math.Float64bits(wl) != math.Float64bits(ll) {
		t.Fatalf("projector diverged at q=%v (anchor %v, reach %v, %d listed):\n  linear:    station=%x lateral=%x\n  projector: station=%x lateral=%x",
			q, anchor, pr.reach, len(pr.list),
			math.Float64bits(ls), math.Float64bits(ll), math.Float64bits(ws), math.Float64bits(wl))
	}
	return listed && pr.anchor == anchor
}

// walkProjector drives one warm projector through n walk steps from q.
func walkProjector(t *testing.T, rng *rand.Rand, p *Path, q Vec2, n int) {
	t.Helper()
	pr := NewProjector(p)
	heading := rng.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		checkProjector(t, pr, q)
		q = walkStep(rng, p, q, &heading)
	}
}

// corpusQueries reads the (seed, qx, qy) triples of the committed
// FuzzProjectEquivalence corpus: the ~1e13 m queries whose rounded
// distances tie between segments.
func corpusQueries(t testing.TB) (seeds []int64, qs []Vec2) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzProjectEquivalence", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzProjectEquivalence corpus: %v", err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if open := strings.IndexByte(line, '('); open >= 0 && strings.HasSuffix(line, ")") {
				vals = append(vals, line[open+1:len(line)-1])
			}
		}
		f.Close()
		if len(vals) < 3 {
			t.Fatalf("%s: %d values, want seed, qx, qy", name, len(vals))
		}
		seed, err1 := strconv.ParseInt(vals[0], 10, 64)
		qx, err2 := strconv.ParseFloat(vals[1], 64)
		qy, err3 := strconv.ParseFloat(vals[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: unparsable values %q", name, vals)
		}
		seeds = append(seeds, seed)
		qs = append(qs, V(qx, qy))
	}
	return seeds, qs
}

// TestProjectorWalkEquivalence holds the neighbour-list Projector to
// bit equality with the linear reference scan along random walks: steps
// from 1 cm to 10 m, reversals, teleports and NaN/±Inf queries over
// random paths; walks from the committed ~1e13 m tie queries; and warm
// projectors tracking actors 0, ±3.5 and ±20 m off the Town5 reference,
// where the list must answer nearly every query.
func TestProjectorWalkEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		p := randomPath(rng)
		walkProjector(t, rng, p, p.PointAt(rng.Float64()*p.Length()), 800)
	}
	seeds, qs := corpusQueries(t)
	for i, seed := range seeds {
		p := randomPath(rand.New(rand.NewSource(seed)))
		walkProjector(t, rand.New(rand.NewSource(seed)), p, qs[i], 400)
	}
	p := town5Reference()
	for _, off := range []float64{0, 3.5, -3.5, 20, -20} {
		rng := rand.New(rand.NewSource(int64(off * 10)))
		pr := NewProjector(p)
		listed, queries := 0, 0
		for s := -5.0; s < p.Length()+5; s += 0.1 + rng.Float64()*0.4 {
			pose := p.PoseAt(s)
			q := pose.Pos.Add(pose.Forward().Perp().Scale(off + rng.Float64()*0.2 - 0.1))
			if checkProjector(t, pr, q) {
				listed++
			}
			queries++
		}
		if listed*10 < queries*8 {
			t.Errorf("offset %v: the list answered %d of %d warm queries, want >= 80%%", off, listed, queries)
		}
	}
}

// FuzzProjectorWalk lets the fuzzer hunt for a walk on which the
// neighbour-list Projector diverges from the linear scan. The path is
// derived from seed, the walk starts at (qx, qy) and its steps come
// from walk.
func FuzzProjectorWalk(f *testing.F) {
	f.Add(int64(1), 10.0, -3.0, int64(1))
	f.Add(int64(7), 0.0, 0.0, int64(2))
	f.Add(int64(4), math.Inf(1), 2.0, int64(3))
	f.Add(int64(5), math.NaN(), math.NaN(), int64(4))
	seeds, qs := corpusQueries(f)
	for i, seed := range seeds {
		f.Add(seed, qs[i].X, qs[i].Y, seed)
	}
	f.Fuzz(func(t *testing.T, seed int64, qx, qy float64, walk int64) {
		p := randomPath(rand.New(rand.NewSource(seed)))
		walkProjector(t, rand.New(rand.NewSource(walk)), p, V(qx, qy), 60)
	})
}

// TestProjectorCertificateMargins pins the pruneLimit margins on both
// sides of the certificate (DESIGN.md §8, invariant 4). Either side's
// margins alone keep every answer exact, so no walk can tell a missing
// one; these cases place a query or a segment just inside one margin
// and check what the projector does with it.
func TestProjectorCertificateMargins(t *testing.T) {
	row := func(x0, y float64, pts []Vec2) []Vec2 {
		for i := 0; i <= 100; i++ {
			pts = append(pts, V(x0+float64(i), y))
		}
		return pts
	}
	// drifted reports whether a query at q rebuilt the list of a
	// projector anchored at a, rather than being answered from it.
	drifted := func(p *Path, a, q Vec2) bool {
		pr := NewProjector(p)
		checkProjector(t, pr, a)
		if len(pr.list) == 0 || pr.anchor != a {
			t.Fatalf("no list anchored at %v", a)
		}
		return !checkProjector(t, pr, q)
	}

	// Relative margin: a query 1 km off a path near the origin (slack
	// ~1e-7 m) whose √best + |q−a| is 5e-7 m short of the reach — inside
	// the 1e-6 m relative margin, outside twice the slack.
	near := MustPath(row(0, 0, nil))
	a := V(50, 1000)
	if !drifted(near, a, a.Add(V(0, 2-5e-7))) {
		t.Error("certificate accepted a query inside its relative margin")
	}
	// Absolute slack: the same path at 1e6 m (slack ~1e-3 m) and a query
	// 1e-4 m short of a 5 m reach — inside the slack, far outside the
	// relative margin.
	far := MustPath(row(1e6, 1e6, nil))
	a = V(1e6+50, 1e6+1)
	if !drifted(far, a, a.Add(V(0, 2-1e-4))) {
		t.Error("certificate accepted a query inside its absolute slack")
	}
	// List side: a return row 5 m + 5e-8 m beyond the reach of an anchor
	// 1 m off the outbound row is inside pruneLimit(R²) and must be
	// listed.
	pts := row(0, 0, nil)
	for i := 100; i >= 0; i-- {
		pts = append(pts, V(float64(i), 6+5e-8))
	}
	loop := MustPath(pts)
	pr := NewProjector(loop)
	checkProjector(t, pr, V(50, 1))
	if !slices.Contains(pr.list, 150) {
		t.Errorf("segment 150, 5 m + 5e-8 m from the anchor with a 5 m reach, is not listed: %v", pr.list)
	}
}
