// Package core is the public façade of the teledrive test bench: the
// paper's methodology as an API. One call runs a subject through a
// scenario over the emulated network with a fault plan and returns both
// the raw run log (§V-F) and the analysed road-safety metrics (§V-G):
// per-condition TTC, per-condition SRR, collision counts, lane
// invasions, and the Fig-4 task time.
//
//	res, err := core.RunOne(core.RunSpec{
//	    Scenario: scenario.FollowVehicle(),
//	    Profile:  subject,                    // one of driver.Subjects()
//	    Seed:     42,
//	    Faults:   assignments,                // one condition per POI
//	})
package core

import (
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
)

// RunSpec configures one drive.
type RunSpec struct {
	Scenario *scenario.Scenario
	Profile  driver.Profile
	Seed     int64
	// Faults assigns a condition to each scenario POI. nil = golden run.
	Faults []faultinject.Condition
	// FaultRules overrides Faults per POI with arbitrary labelled netem
	// rules (adversarial search); nil entries fall back to Faults.
	FaultRules []*faultinject.RuleAssignment
	// Transport overrides the default reliable channel (ablations).
	Transport *transport.Options
	// Driver overrides the default driver configuration (model-vehicle
	// experiments).
	Driver *driver.Config
	// Stack, when non-nil, replaces session.NewStack: the bench probe
	// wraps it to keep the stack, and tests wrap it to impair a link
	// (see rds.BenchConfig.NewStack).
	Stack session.StackBuilder
	// Observers subscribe to the run's event spine (ticks, frames,
	// faults, collisions, condition spans) alongside the trace recorder.
	Observers []session.Observer
	// Metrics, when non-nil, instruments the run (see
	// rds.BenchConfig.Metrics). Telemetry is inert: results and traces
	// are bit-identical with or without it.
	Metrics *telemetry.Registry
	// Events receives the run's sparse structured events as JSONL.
	// Ignored unless Metrics is set.
	Events *telemetry.EventSink
	// Scratch is the executing worker's reusable run arena (see
	// rds.BenchConfig.Scratch). The returned Outcome.Log lives in it and
	// is valid only until the next run on the same scratch; the rest of
	// the Result — outcome scalars, Fingerprint, Analysis — outlives it.
	Scratch *session.RunScratch
	// LogSink, when non-nil, receives the full run log while it is
	// still valid, before RunOne returns (`campaign -logs`/`-csv` export
	// through it). An error from it fails the drive.
	LogSink func(*trace.RunLog) error
	// Artifacts shares immutable scenario artifacts (maps, routes)
	// across runs; safe for concurrent use.
	Artifacts *scenario.ArtifactCache
}

// Result couples the raw outcome with its analysis. What outlives the
// drive's run arena is the outcome scalars, Outcome.Fingerprint and the
// Analysis; a campaign keeps only those plus the log's sparse events
// (trace.RunLog.Events), never the per-tick series.
type Result struct {
	Outcome  *rds.Outcome
	Analysis *Analysis
	// Elapsed is the wall-clock cost of this single drive (simulation +
	// analysis, not simulated time). The campaign runner executes cells
	// concurrently; per-cell wall-clock makes the speedup observable
	// (sum of Elapsed over cells vs campaign.Result.Elapsed).
	Elapsed time.Duration
}

// RunOne executes a single drive and analyses it. It does not copy the
// run log (see RunSpec.Scratch for how long it stays valid).
func RunOne(spec RunSpec) (*Result, error) {
	started := time.Now() //lint:allow wallclock per-drive wall-clock cost (Result.Elapsed) makes the worker-pool speedup observable; not simulated time
	out, err := rds.Run(rds.BenchConfig{
		Scenario:         spec.Scenario,
		Profile:          spec.Profile,
		Seed:             spec.Seed,
		FaultAssignments: spec.Faults,
		FaultRules:       spec.FaultRules,
		Transport:        spec.Transport,
		NewStack:         spec.Stack,
		DriverConfig:     spec.Driver,
		Observers:        spec.Observers,
		Metrics:          spec.Metrics,
		Events:           spec.Events,
		Scratch:          spec.Scratch,
		Artifacts:        spec.Artifacts,
	})
	if err != nil {
		return nil, err
	}
	if spec.LogSink != nil {
		if err := spec.LogSink(out.Log); err != nil {
			return nil, err
		}
	}
	return &Result{
		Outcome:  out,
		Analysis: AnalyzeRun(out.Log, spec.Scenario),
		Elapsed:  time.Since(started), //lint:allow wallclock per-drive wall-clock cost (Result.Elapsed); not simulated time
	}, nil
}

// GoldenPlan returns the all-NFI fault assignment for a scenario.
func GoldenPlan(scn *scenario.Scenario) []faultinject.Condition {
	return make([]faultinject.Condition, len(scn.POIs))
}
