package campaign

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
	"teledrive/internal/trace"
)

// shortScenarios is a reduced scenario sequence for runner tests: the
// two short courses plus a slalom repeat so the POI count (4+3+4=11)
// still fits the smaller Table II budgets.
func shortScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		scenario.LaneChangeSlalom(), scenario.Overtake(), scenario.LaneChangeSlalom(),
	}
}

func subjects(t *testing.T, names ...string) []driver.Profile {
	t.Helper()
	var out []driver.Profile
	for _, n := range names {
		p, ok := driver.SubjectByName(n)
		if !ok {
			t.Fatalf("unknown subject %s", n)
		}
		out = append(out, p)
	}
	return out
}

// stripVolatile zeroes the wall-clock fields and drops the
// func-carrying references (Config.Scenarios, Scenario.MapBuilder) so
// the remaining Result is pure data and reflect.DeepEqual-comparable.
func stripVolatile(res *Result) {
	res.Elapsed = 0
	res.Config = Config{}
	for i := range res.Subjects {
		sub := &res.Subjects[i]
		if sub.Training != nil {
			sub.Training.Elapsed = 0
		}
		for j := range sub.Runs {
			sub.Runs[j].Scenario = nil
			if sub.Runs[j].Golden != nil {
				sub.Runs[j].Golden.Elapsed = 0
			}
			if sub.Runs[j].Faulty != nil {
				sub.Runs[j].Faulty.Elapsed = 0
			}
		}
	}
}

// TestCampaignDeterminismAcrossWorkers is the contract that makes the
// parallel runner trustworthy: the same Config must produce
// bit-identical campaign results (Tables II–IV inputs, SRR/TTC series,
// collision counts, full run logs) with Workers 1, 4, and GOMAXPROCS.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	cfg := Config{
		Seed:                 31,
		Subjects:             subjects(t, "T5", "T1"),
		Scenarios:            shortScenarios,
		ApplyPaperExclusions: true,
	}
	workerSet := []int{1, 4, 0} // 0 resolves to runtime.GOMAXPROCS(0)
	results := make([]*Result, len(workerSet))
	for i, w := range workerSet {
		c := cfg
		c.Workers = w
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results[i] = res
	}

	ref := results[0]
	refII, refIII, refIV := ref.BuildTableII(), ref.BuildTableIII(), ref.BuildTableIV()
	refCol := ref.BuildCollisionAnalysis()
	for i, res := range results[1:] {
		w := workerSet[i+1]
		if !reflect.DeepEqual(res.BuildTableII(), refII) {
			t.Errorf("workers=%d: Table II differs from sequential", w)
		}
		if !reflect.DeepEqual(res.BuildTableIII(), refIII) {
			t.Errorf("workers=%d: Table III differs from sequential", w)
		}
		if !reflect.DeepEqual(res.BuildTableIV(), refIV) {
			t.Errorf("workers=%d: Table IV differs from sequential", w)
		}
		if !reflect.DeepEqual(res.BuildCollisionAnalysis(), refCol) {
			t.Errorf("workers=%d: collision analysis differs from sequential", w)
		}
	}

	// Bit-identical everything: budgets, assignments, outcomes, logs,
	// analyses — after stripping wall-clock and func-typed fields.
	for _, res := range results {
		stripVolatile(res)
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(res.Subjects, ref.Subjects) {
			t.Fatalf("workers=%d: campaign results not bit-identical to sequential", workerSet[i+1])
		}
	}
}

// TestPlanPhaseProperties is the plan-phase property test: for random
// seeds, the assignment always spends exactly the fault budget, and
// planning is a pure function of the Config (two plans from the same
// Config are identical — the RNG is consumed in a fixed sequential
// order, untouched by how execution is later parallelised).
func TestPlanPhaseProperties(t *testing.T) {
	subs := subjects(t, "T5", "T3", "T9")
	seeds := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		cfg := Config{
			Seed:     seeds.Int63(),
			Subjects: subs,
			Plan:     PlanRandom,
			Workers:  1 + trial%8, // plan must not depend on Workers
		}
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		for _, sp := range plan.Subjects {
			counts := sp.Assignment.Counts()
			for _, c := range faultinject.FaultConditions() {
				if counts[c] != sp.Budget.Count(c) {
					t.Fatalf("seed %d subject %s: condition %v assigned %d, budget %d",
						cfg.Seed, sp.Profile.Name, c, counts[c], sp.Budget.Count(c))
				}
			}
		}

		again, err := BuildPlan(cfg)
		if err != nil {
			t.Fatalf("seed %d replan: %v", cfg.Seed, err)
		}
		for i := range plan.Subjects {
			if !reflect.DeepEqual(plan.Subjects[i].Budget, again.Subjects[i].Budget) ||
				!reflect.DeepEqual(plan.Subjects[i].Assignment, again.Subjects[i].Assignment) {
				t.Fatalf("seed %d: replanning changed subject %d", cfg.Seed, i)
			}
		}

		// Structural invariants of the flattened work list.
		wantCells := len(subs) * len(plan.Subjects[0].Scenarios) * 2
		if len(plan.Cells) != wantCells {
			t.Fatalf("seed %d: %d cells, want %d", cfg.Seed, len(plan.Cells), wantCells)
		}
		seen := make(map[int64]bool)
		instances := make(map[*scenario.Scenario]bool)
		for _, cell := range plan.Cells {
			if seen[cell.Spec.Seed] {
				t.Fatalf("seed %d: duplicate cell seed %d", cfg.Seed, cell.Spec.Seed)
			}
			seen[cell.Spec.Seed] = true
			if instances[cell.Spec.Scenario] {
				t.Fatalf("seed %d: two cells share a scenario instance", cfg.Seed)
			}
			instances[cell.Spec.Scenario] = true
		}
	}
}

// TestPlanMatchesExecutedRun asserts the other half of the plan
// property: the plan extracted from a full (parallel) Run equals a
// plan-only call — executing cells concurrently cannot shift what the
// campaign RNG decided.
func TestPlanMatchesExecutedRun(t *testing.T) {
	cfg := Config{
		Seed:      913,
		Subjects:  subjects(t, "T5"),
		Scenarios: shortScenarios,
		Workers:   3,
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range plan.Subjects {
		sub := res.Subjects[i]
		if sub.Budget != sp.Budget {
			t.Fatalf("subject %s: run budget %+v != planned %+v", sp.Profile.Name, sub.Budget, sp.Budget)
		}
		if !reflect.DeepEqual(sub.Assignment, sp.Assignment) {
			t.Fatalf("subject %s: run assignment differs from plan", sp.Profile.Name)
		}
	}
	// The faulty runs actually injected what the plan assigned.
	counts := res.Subjects[0].InjectedCounts()
	planned := plan.Subjects[0].Assignment.Counts()
	for _, c := range faultinject.FaultConditions() {
		if counts[c] != planned[c] {
			t.Fatalf("condition %v: injected %d, planned %d", c, counts[c], planned[c])
		}
	}
}

// TestSharedScenarioFactoryRejected is the regression test for the
// scenario-aliasing hazard: a factory that hands out the same
// *Scenario instances on every call must be rejected at plan time —
// worlds are single-use and cells run concurrently.
func TestSharedScenarioFactoryRejected(t *testing.T) {
	shared := shortScenarios()
	cfg := Config{
		Seed:      1,
		Subjects:  subjects(t, "T5"),
		Scenarios: func() []*scenario.Scenario { return shared },
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("factory returning shared scenario instances was accepted")
	}
	if !strings.Contains(err.Error(), "shared *Scenario") {
		t.Fatalf("unexpected error: %v", err)
	}

	// A factory that repeats an instance within one call is equally
	// aliased.
	cfg.Scenarios = func() []*scenario.Scenario {
		s := scenario.LaneChangeSlalom()
		o := scenario.Overtake()
		return []*scenario.Scenario{s, o, s}
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("factory repeating an instance within one call was accepted")
	}

	// A non-deterministic factory (changing count between calls) is
	// rejected too.
	flip := false
	cfg.Scenarios = func() []*scenario.Scenario {
		flip = !flip
		if flip {
			return shortScenarios()
		}
		return shortScenarios()[:2]
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-deterministic factory was accepted")
	}
}

// TestParallelFailureCancels: a failing cell aborts the campaign with
// the legacy error format, and the error is deterministic (the
// lowest-index failing cell) even with concurrent workers.
func TestParallelFailureCancels(t *testing.T) {
	// Scenarios that pass planning (they have POIs) but fail run
	// validation immediately (EndStation before the start).
	bad := func() []*scenario.Scenario {
		var out []*scenario.Scenario
		for i := 0; i < 3; i++ {
			out = append(out, &scenario.Scenario{
				Name:            "bad",
				EgoStartStation: 10,
				EndStation:      5,
				Timeout:         time.Minute,
				POIs: []scenario.POI{
					{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
				},
			})
		}
		return out
	}
	for _, w := range []int{1, 4} {
		_, err := Run(Config{Seed: 5, Subjects: subjects(t, "T5"), Scenarios: bad, Workers: w})
		if err == nil {
			t.Fatalf("workers=%d: invalid scenario accepted", w)
		}
		if !strings.Contains(err.Error(), "campaign: subject T5 golden bad") {
			t.Fatalf("workers=%d: unexpected error: %v", w, err)
		}
	}
}

// TestExecuteCellsClampsWorkers: a non-positive width (a search with
// Options.Workers ≤ 1 passes 0) runs a one-worker pool instead of none,
// and still reports the lowest failing index.
func TestExecuteCellsClampsWorkers(t *testing.T) {
	prof := subjects(t, "T5")[0]
	specs := make([]core.RunSpec, 3)
	for i := range specs {
		specs[i] = core.RunSpec{
			Scenario: &scenario.Scenario{Name: "bad", EgoStartStation: 10, EndStation: 5, Timeout: time.Minute},
			Profile:  prof,
			Seed:     int64(i),
		}
	}
	for _, w := range []int{0, -2} {
		res, failed, err := ExecuteCells(specs, w, nil, scenario.NewArtifactCache())
		if err == nil || failed != 0 || res != nil {
			t.Fatalf("workers=%d: got (%v, %d, %v), want the error of cell 0", w, res, failed, err)
		}
	}
}

// TestResolveWorkers pins the knob semantics.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("resolveWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := resolveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("resolveWorkers(-3) = %d", got)
	}
	if got := resolveWorkers(6); got != 6 {
		t.Fatalf("resolveWorkers(6) = %d", got)
	}
}

// TestRunKeepsFingerprintNotSeries: a campaign's drive results keep
// the log's sparse events (Faults) but none of its per-tick Ego or
// Others records, and each keeps the fingerprint of its full log — the
// one the same drive gives when run alone, without a scratch arena.
func TestRunKeepsFingerprintNotSeries(t *testing.T) {
	cfg := Config{
		Seed:                 31,
		Subjects:             subjects(t, "T5"),
		Scenarios:            shortScenarios,
		ApplyPaperExclusions: true,
		Workers:              2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second plan gives every reference drive fresh scenario instances.
	ref, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for ci, cell := range ref.Cells {
		run := res.Subjects[cell.Subject].Runs[cell.Scenario]
		r := run.Golden
		if cell.Kind == CellFaulty {
			r = run.Faulty
		}
		log := r.Outcome.Log
		if len(log.Ego) != 0 || len(log.Others) != 0 {
			t.Fatalf("cell %d: result keeps %d ego and %d other records", ci, len(log.Ego), len(log.Others))
		}
		alone, err := core.RunOne(cell.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Outcome.Fingerprint, trace.Fingerprint(alone.Outcome.Log); got != want {
			t.Fatalf("cell %d: campaign fingerprint %q, drive alone %q", ci, got, want)
		}
		if !slices.Equal(log.Faults, alone.Outcome.Log.Faults) {
			t.Fatalf("cell %d: kept faults %v, drive alone logged %v", ci, log.Faults, alone.Outcome.Log.Faults)
		}
		faults += len(log.Faults)
	}
	if faults == 0 {
		t.Fatal("no cell kept a fault record; the faulty drives injected nothing")
	}
}
