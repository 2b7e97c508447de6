package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"teledrive/internal/telemetry"
)

// Request asks an evaluator for the safety signals of one grid point.
// Seed is the cell's run seed — a pure function of the search seed and
// the point's grid index, so the same point always simulates
// identically no matter which generation proposes it.
type Request struct {
	Point Point
	Seed  int64
}

// Evaluator turns a batch of proposed points into safety signals. The
// driver hands over one generation at a time; implementations may
// evaluate the batch concurrently (workers wide) but must return
// results indexed like the requests and be deterministic per request —
// the search's replayability contract. SimEvaluator runs real drives on
// the campaign cell executor; tests use synthetic evaluators.
type Evaluator interface {
	Evaluate(reqs []Request, workers int) ([]Signals, error)
}

// Options configure one search.
type Options struct {
	// Space is the perturbation grid (nil = DefaultSpace).
	Space *Space
	// Seed drives every random choice of the search. Same seed + same
	// options ⇒ byte-identical trajectory, journal, and report, for any
	// worker count.
	Seed int64
	// Generations and CellsPerGen size the search budget.
	Generations int
	CellsPerGen int
	// Epsilon is the uniform share of the proposal mixture in (0,1]:
	// every cell is drawn from the uniform grid with probability Epsilon
	// and from a kernel around a random elite otherwise. It keeps every
	// point reachable (the Horvitz–Thompson floor) and feeds the
	// held-out uniform stratum. Default 0.2.
	Epsilon float64
	// Elites is how many best-so-far cells anchor the proposal kernels.
	// Default 8.
	Elites int
	// Kernel shapes the per-axis proposal neighborhood (zero value =
	// DefaultKernel).
	Kernel Kernel
	// Weights score cells (zero value = DefaultWeights).
	Weights Weights
	// Workers is the evaluation pool width (≤1 = one worker). It never
	// affects results, only wall-clock.
	Workers int
	// Label tags the evaluator configuration (e.g. "sim/T3"). It is
	// folded into the journal digest so a journal cannot be resumed
	// against a different subject.
	Label string
	// Journal, when non-nil, records every evaluated cell and seeds the
	// resume cache.
	Journal *Journal
	// Metrics, when non-nil, instruments the search (inert: results are
	// bit-identical with or without it).
	Metrics *telemetry.Registry
	// OnGeneration, when non-nil, observes each finished generation
	// (progress displays).
	OnGeneration func(GenStats)
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.Space == nil {
		o.Space = DefaultSpace()
	}
	if o.Generations <= 0 {
		o.Generations = 8
	}
	if o.CellsPerGen <= 0 {
		o.CellsPerGen = 16
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.2
	}
	if o.Elites <= 0 {
		o.Elites = 8
	}
	if o.Kernel == (Kernel{}) {
		o.Kernel = DefaultKernel()
	}
	if o.Weights.IsZero() {
		o.Weights = DefaultWeights()
	}
	return o
}

// Validate rejects malformed options (after defaulting).
func (o Options) Validate() error {
	if err := o.Space.Validate(); err != nil {
		return err
	}
	if err := o.Kernel.Validate(); err != nil {
		return err
	}
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		return fmt.Errorf("search: epsilon %v out of (0,1]", o.Epsilon)
	}
	return nil
}

// Digest fingerprints everything that shapes the search trajectory:
// seed, budget, mixture, kernel, weights, label, and the full space.
// Workers and telemetry are deliberately excluded — they must not
// change the trajectory, and the journal enforces exactly that.
func (o Options) Digest() string {
	o = o.withDefaults()
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(o.Seed))
	word(uint64(o.Generations))
	word(uint64(o.CellsPerGen))
	f(o.Epsilon)
	word(uint64(o.Elites))
	word(uint64(o.Kernel.Radius))
	f(o.Kernel.Rho)
	f(o.Weights.Collision)
	f(o.Weights.TTCMargin)
	f(o.Weights.Exposure)
	f(o.Weights.Drops)
	f(o.Weights.Incomplete)
	h.Write([]byte(o.Label))
	for _, name := range o.Space.Scenarios {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, ax := range o.Space.Axes {
		h.Write([]byte(ax.Name))
		h.Write([]byte{0})
		word(uint64(len(ax.Values)))
		for _, v := range ax.Values {
			f(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellSeed derives a cell's run seed from the search seed and the
// point's grid index (splitmix64 finalizer): a pure function, so the
// same point re-proposed in any generation — or in a resumed run —
// simulates identically.
func cellSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Cell is one evaluated point of the trajectory.
type Cell struct {
	Gen, Slot int
	Point     Point
	// Index is the flattened grid index.
	Index int
	Seed  int64
	// Weight is the Horvitz–Thompson importance weight u/q of the draw.
	Weight float64
	// Uniform marks eps-branch (and generation-0) draws: the held-out
	// uniform stratum.
	Uniform bool
	// Cached marks cells whose signals came from the resume journal.
	Cached      bool
	Signals     Signals
	Criticality float64
	// Accepted marks cells that beat the worst elite at their
	// generation's start.
	Accepted bool
}

// GenStats summarizes one finished generation.
type GenStats struct {
	Gen int
	// Evaluated / CachedCells split the generation's cells by whether a
	// simulation actually ran.
	Evaluated   int
	CachedCells int
	Accepted    int
	// Best is the generation's top criticality; BestSoFar the search's.
	Best      float64
	BestSoFar float64
	// Threshold was the acceptance bar at generation start (-Inf while
	// the elite pool is filling).
	Threshold float64
}

// Report is the search outcome: the full trajectory plus the estimates
// the run exists to produce. It contains no wall-clock and no
// machine-dependent state — rendered via WriteReport it is
// byte-identical across runs, worker counts, and resumes.
type Report struct {
	// Digest pins the configuration that produced the trajectory.
	Digest string
	Label  string
	Seed   int64
	// SpaceSize is the grid cardinality the HT estimates extrapolate to.
	SpaceSize int

	Generations []GenStats
	// Cells is the full trajectory in (gen, slot) order.
	Cells []*Cell

	// TotalCells == Generations×CellsPerGen; UniqueCells counts distinct
	// grid points visited; AcceptedCells counts threshold beats.
	TotalCells    int
	UniqueCells   int
	AcceptedCells int

	// CollisionCells counts distinct grid points whose run collided;
	// DangerousCells distinct points with min TTC under the 6 s
	// threshold.
	CollisionCells int
	DangerousCells int

	// HTCollisionRate estimates the fraction of the FULL uniform grid
	// whose cells collide, from the importance-weighted trajectory
	// (Horvitz–Thompson); HTCollisionErr is its standard error.
	HTCollisionRate float64
	HTCollisionErr  float64
	// HTDangerousRate / HTDangerousErr estimate the grid fraction with
	// min TTC under the threshold.
	HTDangerousRate float64
	HTDangerousErr  float64

	// UniformCells counts the held-out uniform-stratum draws;
	// UniformCollisionRate / UniformDangerousRate are their plain means
	// — an independently unbiased cross-check of the HT estimates.
	UniformCells         int
	UniformCollisionRate float64
	UniformDangerousRate float64

	// Best is the top of the final elite pool (up to 10 cells).
	Best []*Cell
}

// Run executes the search: Generations rounds of CellsPerGen proposals,
// each scored and folded into the elite pool that guides the next
// round.
//
// Determinism contract: every random choice is drawn from one rng
// seeded with Options.Seed, consumed in proposal order before any
// evaluation starts, and evaluation itself is deterministic per cell
// seed — so the trajectory, journal, and report are byte-identical for
// any Workers value, and a journal-resumed run continues exactly where
// the interrupted one would have gone.
func Run(opts Options, ev Evaluator) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ev == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var ins *Instruments
	if opts.Metrics != nil {
		ins = NewInstruments(opts.Metrics)
	}

	rep := &Report{
		Digest:    opts.Digest(),
		Label:     opts.Label,
		Seed:      opts.Seed,
		SpaceSize: opts.Space.Size(),
	}
	// sigCache short-circuits evaluation by grid index: duplicates
	// within a run and journaled cells from an interrupted one.
	sigCache := make(map[int]Signals)
	var elites []*Cell
	bestSoFar := math.Inf(-1)
	acceptedTotal := 0

	for g := 0; g < opts.Generations; g++ {
		threshold := math.Inf(-1)
		if len(elites) >= opts.Elites {
			threshold = elites[opts.Elites-1].Criticality
		}
		elitePoints := make([]Point, len(elites))
		for i, e := range elites {
			elitePoints[i] = e.Point
		}

		// Propose the whole generation first: all randomness is consumed
		// here, sequentially, before any evaluation — evaluation order
		// can then never perturb the trajectory.
		cells := make([]*Cell, opts.CellsPerGen)
		for s := range cells {
			var p Point
			uniform := true
			if len(elitePoints) > 0 {
				if rng.Float64() < opts.Epsilon {
					p = opts.Space.UniformDraw(rng)
				} else {
					uniform = false
					e := elitePoints[rng.Intn(len(elitePoints))]
					p = opts.Kernel.Draw(rng, opts.Space, e)
				}
			} else {
				p = opts.Space.UniformDraw(rng)
			}
			q := MixtureProb(opts.Space, opts.Kernel, elitePoints, opts.Epsilon, p)
			idx := opts.Space.Index(p)
			cells[s] = &Cell{
				Gen:     g,
				Slot:    s,
				Point:   p,
				Index:   idx,
				Seed:    cellSeed(opts.Seed, idx),
				Weight:  opts.Space.UniformProb() / q,
				Uniform: uniform,
			}
		}

		// Resolve signals: journal first (resume), then the in-run index
		// cache, then one evaluator batch for the rest. firstSlot
		// deduplicates repeated points inside the batch — they share one
		// simulation, like they share one seed.
		var reqs []Request
		var pending []int
		firstSlot := make(map[int]int)
		for s, c := range cells {
			if e, ok := journalCached(opts.Journal, g, s); ok {
				c.Signals = e.Signals
				c.Cached = true
				sigCache[c.Index] = e.Signals
				continue
			}
			if sig, ok := sigCache[c.Index]; ok {
				c.Signals = sig
				c.Cached = true
				continue
			}
			if _, dup := firstSlot[c.Index]; dup {
				continue
			}
			firstSlot[c.Index] = s
			reqs = append(reqs, Request{Point: c.Point, Seed: c.Seed})
			pending = append(pending, s)
		}
		if len(reqs) > 0 {
			sigs, err := ev.Evaluate(reqs, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("search: gen %d: %w", g, err)
			}
			if len(sigs) != len(reqs) {
				return nil, fmt.Errorf("search: gen %d: evaluator returned %d signals for %d requests", g, len(sigs), len(reqs))
			}
			for i, s := range pending {
				sigCache[cells[s].Index] = sigs[i]
			}
		}
		evaluated := 0
		for _, c := range cells {
			if c.Cached {
				continue
			}
			sig, ok := sigCache[c.Index]
			if !ok {
				return nil, fmt.Errorf("search: gen %d slot %d: no signals for index %d", g, c.Slot, c.Index)
			}
			c.Signals = sig
			evaluated++
		}

		// Score, accept, journal — in slot order, so the journal is
		// deterministic no matter how the evaluator scheduled the batch.
		gs := GenStats{Gen: g, Threshold: threshold, Best: math.Inf(-1)}
		for _, c := range cells {
			c.Criticality = opts.Weights.Score(c.Signals)
			c.Accepted = c.Criticality > threshold
			if c.Accepted {
				gs.Accepted++
			}
			if c.Criticality > gs.Best {
				gs.Best = c.Criticality
			}
			if c.Criticality > bestSoFar {
				bestSoFar = c.Criticality
			}
			if c.Cached {
				gs.CachedCells++
			}
			if opts.Journal != nil {
				if err := opts.Journal.Append(journalEntry(c)); err != nil {
					return nil, err
				}
			}
		}
		gs.Evaluated = evaluated
		gs.BestSoFar = bestSoFar
		acceptedTotal += gs.Accepted

		// Fold the generation into the elite pool: top-E over everything
		// seen so far, stably ordered (criticality desc, trajectory order
		// breaks ties) so the pool is deterministic.
		rep.Cells = append(rep.Cells, cells...)
		elites = topCells(rep.Cells, opts.Elites)

		rep.Generations = append(rep.Generations, gs)
		if ins != nil {
			ins.Generations.Inc()
			ins.CellsEvaluated.Add(uint64(evaluated))
			ins.CellsCached.Add(uint64(gs.CachedCells))
			total := len(rep.Cells)
			ins.AcceptanceMilli.Set(int64(1000 * acceptedTotal / total))
			ins.BestCriticalityMilli.Set(int64(1000 * bestSoFar))
		}
		if opts.OnGeneration != nil {
			opts.OnGeneration(gs)
		}
	}

	finishReport(rep, elites, acceptedTotal)
	return rep, nil
}

// journalCached looks up a trajectory position in a possibly-nil
// journal.
func journalCached(j *Journal, gen, slot int) (Entry, bool) {
	if j == nil {
		return Entry{}, false
	}
	return j.Cached(gen, slot)
}

// journalEntry converts a scored cell to its journal line.
func journalEntry(c *Cell) Entry {
	pt := make([]int, NumAxes)
	copy(pt, c.Point[:])
	return Entry{
		Gen:         c.Gen,
		Slot:        c.Slot,
		Point:       pt,
		Index:       c.Index,
		Weight:      c.Weight,
		Uniform:     c.Uniform,
		Criticality: c.Criticality,
		Signals:     c.Signals,
	}
}

// topCells returns the n highest-criticality cells in stable trajectory
// order.
func topCells(cells []*Cell, n int) []*Cell {
	sorted := make([]*Cell, len(cells))
	copy(sorted, cells)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Criticality > sorted[j].Criticality
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// finishReport computes the estimates from the finished trajectory.
func finishReport(rep *Report, elites []*Cell, accepted int) {
	rep.TotalCells = len(rep.Cells)
	rep.AcceptedCells = accepted

	seen := make(map[int]bool)
	collided := make(map[int]bool)
	dangerous := make(map[int]bool)
	var uniformN, uniformColl, uniformDang int
	// Horvitz–Thompson: every draw i contributes w_i·z_i with
	// E[w·z] = mean z over the full grid, because w = u/q under the
	// draw's own proposal q. The per-draw products are averaged over the
	// whole trajectory; the standard error is the sample stderr of the
	// products (draws are independent given each generation's proposal,
	// and each has the same expectation).
	var collSum, collSq, dangSum, dangSq float64
	for _, c := range rep.Cells {
		seen[c.Index] = true
		isColl := c.Signals.Collisions > 0
		isDang := c.Signals.TTCValid && c.Signals.MinTTC < 6
		if isColl {
			collided[c.Index] = true
		}
		if isDang {
			dangerous[c.Index] = true
		}
		var zc, zd float64
		if isColl {
			zc = 1
		}
		if isDang {
			zd = 1
		}
		collSum += c.Weight * zc
		collSq += c.Weight * zc * c.Weight * zc
		dangSum += c.Weight * zd
		dangSq += c.Weight * zd * c.Weight * zd
		if c.Uniform {
			uniformN++
			if isColl {
				uniformColl++
			}
			if isDang {
				uniformDang++
			}
		}
	}
	n := float64(len(rep.Cells))
	if n > 0 {
		rep.HTCollisionRate = collSum / n
		rep.HTDangerousRate = dangSum / n
		if n > 1 {
			rep.HTCollisionErr = stderr(collSq, rep.HTCollisionRate, n)
			rep.HTDangerousErr = stderr(dangSq, rep.HTDangerousRate, n)
		}
	}
	rep.UniqueCells = len(seen)
	rep.CollisionCells = len(collided)
	rep.DangerousCells = len(dangerous)
	rep.UniformCells = uniformN
	if uniformN > 0 {
		rep.UniformCollisionRate = float64(uniformColl) / float64(uniformN)
		rep.UniformDangerousRate = float64(uniformDang) / float64(uniformN)
	}
	rep.Best = elites
	if len(rep.Best) > 10 {
		rep.Best = rep.Best[:10]
	}
}

// stderr computes the sample standard error of the mean from the sum of
// squares, clamping the tiny negative variances float cancellation can
// produce when all products are equal.
func stderr(sumSq, mean, n float64) float64 {
	v := (sumSq/n - mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
