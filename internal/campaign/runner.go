// Campaign runner: the §V-E2 protocol split into a deterministic
// sequential *plan* phase and a parallel *execute* phase.
//
// The plan phase is the only place campaign-level randomness is
// consumed: it draws every subject's fault budget and per-scenario
// assignment from the campaign RNG in a fixed order and flattens the
// protocol into a list of independent RunCells (each cell carries an
// explicit seed and a fresh scenario instance). The execute phase
// dispatches cells to a bounded worker pool and reassembles results in
// subject/scenario order, so campaign results are bit-identical for any
// worker count — a tested invariant (see runner_test.go), not a hope.
package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/pool"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
)

// CellKind distinguishes the three drive types of a campaign cell.
type CellKind int

// Cell kinds, in per-subject protocol order.
const (
	CellTraining CellKind = iota
	CellGolden
	CellFaulty
)

// String renders the kind as it appears in error messages.
func (k CellKind) String() string {
	switch k {
	case CellTraining:
		return "training"
	case CellGolden:
		return "golden"
	case CellFaulty:
		return "faulty"
	default:
		return fmt.Sprintf("cellkind(%d)", int(k))
	}
}

// RunCell is one independent unit of campaign work: a single drive of
// one subject through one fresh scenario instance with an explicit
// seed. Cells share no mutable state, which is what makes the execute
// phase embarrassingly parallel.
type RunCell struct {
	// Subject indexes Plan.Subjects.
	Subject int
	// Scenario indexes the subject's scenario sequence; -1 for the
	// training drive.
	Scenario int
	Kind     CellKind
	Spec     core.RunSpec
}

// SubjectPlan is everything the plan phase decided for one subject.
type SubjectPlan struct {
	Profile driver.Profile
	Budget  FaultBudget
	// Assignment maps every POI of every scenario to a condition.
	Assignment Assignment
	// Scenarios are the metadata instances the tables reference; they
	// are never driven (each cell gets its own fresh instance).
	Scenarios []*scenario.Scenario

	Excluded      bool
	ExcludeReason string
	Missing       MissingData
}

// Plan is the frozen outcome of the plan phase: all randomness
// resolved, all work enumerated.
type Plan struct {
	// Config has defaults filled in.
	Config   Config
	Subjects []SubjectPlan
	// Cells lists every drive in legacy (sequential) order: per subject,
	// optional training, then golden/faulty pairs per scenario.
	Cells []RunCell
}

// BuildPlan runs the sequential plan phase. It consumes the campaign
// RNG in exactly the order the legacy sequential runner did (budgets
// first, then the per-scenario assignment, subject by subject), so a
// plan is a pure function of the Config regardless of how it is later
// executed.
func BuildPlan(cfg Config) (*Plan, error) {
	cfg.fillDefaults()
	budgets := PaperFaultBudgets()
	rng := rand.New(rand.NewSource(cfg.Seed))

	p := &Plan{Config: cfg}
	for si, prof := range cfg.Subjects {
		sp := SubjectPlan{Profile: prof}
		if cfg.ApplyPaperExclusions {
			if prof.Name == "T7" {
				sp.Excluded = true
				sp.ExcludeReason = "left-hand-drive habituation unduly affected right-hand scenarios (§VI-A)"
			}
			sp.Missing = paperMissing(prof.Name)
		}

		switch cfg.Plan {
		case PlanRandom:
			sp.Budget = RandomFaultBudget(rng)
		default:
			b, ok := budgets[prof.Name]
			if !ok {
				b = RandomFaultBudget(rng)
			}
			sp.Budget = b
		}

		scns := cfg.Scenarios()
		assignment, err := BuildAssignment(scns, sp.Budget, rng)
		if err != nil {
			return nil, fmt.Errorf("campaign: subject %s: %w", prof.Name, err)
		}
		sp.Assignment = assignment
		sp.Scenarios = scns

		if cfg.IncludeTraining {
			p.Cells = append(p.Cells, RunCell{
				Subject: si, Scenario: -1, Kind: CellTraining,
				Spec: core.RunSpec{
					Scenario:  scenario.Training(),
					Profile:   prof,
					Seed:      cfg.Seed ^ prof.Seed ^ 0x7e57,
					Transport: cfg.Transport,
					Metrics:   cfg.Metrics,
				},
			})
		}

		// Fresh instances for every drive: worlds are single-use, so the
		// golden and faulty runs must not share scenario state with each
		// other or with the metadata instances above.
		golden := cfg.Scenarios()
		faulty := cfg.Scenarios()
		if err := checkFreshScenarios(prof.Name, scns, golden, faulty); err != nil {
			return nil, err
		}
		for i := range scns {
			seed := cfg.Seed ^ prof.Seed ^ int64(i)<<32
			p.Cells = append(p.Cells, RunCell{
				Subject: si, Scenario: i, Kind: CellGolden,
				Spec: core.RunSpec{
					Scenario:  golden[i],
					Profile:   prof,
					Seed:      seed,
					Faults:    core.GoldenPlan(golden[i]),
					Transport: cfg.Transport,
					Metrics:   cfg.Metrics,
				},
			})
			p.Cells = append(p.Cells, RunCell{
				Subject: si, Scenario: i, Kind: CellFaulty,
				Spec: core.RunSpec{
					Scenario:  faulty[i],
					Profile:   prof,
					Seed:      seed ^ 0xFA11,
					Faults:    assignment.PerScenario[i],
					Transport: cfg.Transport,
					Metrics:   cfg.Metrics,
				},
			})
		}
		p.Subjects = append(p.Subjects, sp)
	}
	return p, nil
}

// checkFreshScenarios rejects scenario factories that hand out shared
// *Scenario instances across calls (or twice within one call): cells
// run concurrently, and a shared instance would alias mutable scenario
// state between drives.
func checkFreshScenarios(subject string, lists ...[]*scenario.Scenario) error {
	seen := make(map[*scenario.Scenario]bool)
	for _, l := range lists {
		if len(l) != len(lists[0]) {
			return fmt.Errorf("campaign: subject %s: scenario factory returned %d scenarios after returning %d — factories must be deterministic", subject, len(l), len(lists[0]))
		}
		for _, s := range l {
			if seen[s] {
				return fmt.Errorf("campaign: subject %s: scenario factory returned a shared *Scenario (%q); factories must return fresh instances — worlds are single-use", subject, s.Name)
			}
			seen[s] = true
		}
	}
	return nil
}

// CellError wraps a cell failure in the canonical campaign error
// format ("campaign: subject T5 golden slalom: ..."). External
// executors — the distributed coordinator — use it so a cell that
// fails on a remote worker reports exactly like one that fails in
// process.
func (p *Plan) CellError(c RunCell, err error) error { return p.cellError(c, err) }

// cellError wraps a cell failure in the legacy error format.
func (p *Plan) cellError(c RunCell, err error) error {
	name := p.Subjects[c.Subject].Profile.Name
	if c.Kind == CellTraining {
		return fmt.Errorf("campaign: subject %s training: %w", name, err)
	}
	return fmt.Errorf("campaign: subject %s %s %s: %w", name, c.Kind, c.Spec.Scenario.Name, err)
}

// resolveWorkers normalizes a Workers knob: 0 (or negative) means one
// worker per available CPU.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Execute runs the plan's cells on a bounded worker pool
// (Config.Workers wide) and reassembles the results in deterministic
// subject/scenario order. After the first cell failure no new cell
// starts, and the lowest failing cell's error is returned.
func (p *Plan) Execute() (*Result, error) {
	started := time.Now() //lint:allow wallclock measures the bench's own cost (Result.Elapsed); simulated time comes from simclock

	workers := resolveWorkers(p.Config.Workers)
	if workers > len(p.Cells) {
		workers = len(p.Cells)
	}

	// Campaign instruments bind here, once per execute; the cell loop
	// below touches only pre-bound atomic handles.
	var ins *Instruments
	if p.Config.Metrics != nil {
		ins = NewInstruments(p.Config.Metrics)
		ins.CellsPlanned.Add(uint64(len(p.Cells)))
		ins.Workers.Set(int64(workers))
	}

	// Shared scenario artifacts: cells carry fresh *Scenario instances
	// (the plan/execute contract, checkFreshScenarios), but the immutable
	// half — map, blended route — is identical across every cell of a
	// scenario and is built once here instead of once per cell.
	arts := scenario.NewArtifactCache()

	specs := make([]core.RunSpec, len(p.Cells))
	for ci, cell := range p.Cells {
		specs[ci] = cell.Spec
	}
	results, failed, err := ExecuteCells(specs, workers, ins, arts)
	if err != nil {
		return nil, p.cellError(p.Cells[failed], err)
	}
	return p.assemble(results, started), nil
}

// ExecuteCells runs independent cell specs on a bounded worker pool:
// the execute phase detached from campaign plans, shared with the
// adversarial search driver. It runs on pool.Run with workers clamped
// to [1, len(specs)] (so 0 means one worker), each owning one run
// arena; after the first failure no new cell starts. Results come back
// indexed like specs, each detached from its worker's arena: its
// Outcome.Log keeps the header and sparse events (trace.RunLog.Events)
// but no Ego or Others series, so a campaign's memory grows with its
// workers, not its cells. A spec's LogSink sees the full log.
// On error the returned int is the lowest failing spec index —
// deterministic even when several cells fail concurrently — and the
// error is the bare cell error (callers add their own context). ins may
// be nil (no telemetry); arts is the shared immutable-artifact cache
// set on every spec alongside the worker's scratch arena.
func ExecuteCells(specs []core.RunSpec, workers int, ins *Instruments, arts *scenario.ArtifactCache) ([]*core.Result, int, error) {
	results := make([]*core.Result, len(specs))
	workers = max(1, min(workers, len(specs)))
	// Each worker owns one run arena for its whole cell stream; the
	// artifact cache is shared (immutable artifacts, mutex inside).
	// Per-worker handles bind here; the cell path only increments.
	scratch := make([]*session.RunScratch, workers)
	wc := make([]*telemetry.Counter, workers)
	for w := range scratch {
		scratch[w] = session.NewRunScratch()
		if ins != nil {
			wc[w] = ins.WorkerCells(w)
		}
	}
	failed, err := pool.Run(len(specs), workers, func(w, ci int) error {
		if ins != nil {
			ins.CellsInFlight.Inc()
		}
		spec := specs[ci]
		spec.Scratch = scratch[w]
		spec.Artifacts = arts
		r, err := core.RunOne(spec)
		ins.cellDone(r, wc[w], err)
		if err != nil {
			return err
		}
		// Detach before this worker's next cell reuses the scratch: keep
		// the log's sparse events, drop its per-tick series.
		r.Outcome.Log = r.Outcome.Log.Events()
		results[ci] = r
		return nil
	})
	if err != nil {
		return nil, failed, err
	}
	return results, -1, nil
}

// Assemble folds externally executed per-cell results into the
// campaign Result, exactly as the in-process execute phase does:
// results[i] must be the outcome of Cells[i], and the fold is by plan
// order, so any executor that produces correct per-cell results —
// worker pool, distributed service, journal replay — aggregates
// bit-identically. started anchors Result.Elapsed (wall-clock cost of
// the whole campaign, not simulated time).
func (p *Plan) Assemble(results []*core.Result, started time.Time) (*Result, error) {
	if len(results) != len(p.Cells) {
		return nil, fmt.Errorf("campaign: assemble: %d results for %d cells", len(results), len(p.Cells))
	}
	for ci, r := range results {
		if r == nil {
			return nil, fmt.Errorf("campaign: assemble: missing result for cell %d (%s)", ci, p.cellError(p.Cells[ci], errTruncated))
		}
	}
	return p.assemble(results, started), nil
}

// errTruncated labels a missing cell result inside an Assemble error.
var errTruncated = errors.New("no result")

// assemble folds per-cell results back into the legacy Result shape,
// in subject/scenario order regardless of completion order.
func (p *Plan) assemble(results []*core.Result, started time.Time) *Result {
	res := &Result{Config: p.Config}
	res.Subjects = make([]SubjectResult, len(p.Subjects))
	for i, sp := range p.Subjects {
		res.Subjects[i] = SubjectResult{
			Profile:       sp.Profile,
			Budget:        sp.Budget,
			Assignment:    sp.Assignment,
			Excluded:      sp.Excluded,
			ExcludeReason: sp.ExcludeReason,
			Missing:       sp.Missing,
			Runs:          make([]ScenarioResult, len(sp.Scenarios)),
		}
		for j, scn := range sp.Scenarios {
			res.Subjects[i].Runs[j].Scenario = scn
		}
	}
	for ci, cell := range p.Cells {
		sub := &res.Subjects[cell.Subject]
		switch cell.Kind {
		case CellTraining:
			sub.Training = results[ci]
		case CellGolden:
			sub.Runs[cell.Scenario].Golden = results[ci]
		case CellFaulty:
			sub.Runs[cell.Scenario].Faulty = results[ci]
		}
	}
	res.Elapsed = time.Since(started) //lint:allow wallclock measures the bench's own cost (Result.Elapsed); simulated time comes from simclock
	return res
}
