package campaign

import (
	"errors"
	"strings"
	"testing"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/core"
	"teledrive/internal/rds"
	"teledrive/internal/trace"
)

// TestAssembleValidation: the exported Assemble (the distributed
// coordinator's entry into the aggregation) must reject result slices
// that do not cover the plan exactly.
func TestAssembleValidation(t *testing.T) {
	plan, err := BuildPlan(Config{
		Seed:      31,
		Subjects:  subjects(t, "T5"),
		Scenarios: shortScenarios,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) == 0 {
		t.Fatal("empty plan")
	}

	if _, err := plan.Assemble(make([]*core.Result, len(plan.Cells)-1), time.Time{}); err == nil {
		t.Fatal("short result slice accepted")
	}

	results := make([]*core.Result, len(plan.Cells))
	for i := range results {
		results[i] = &core.Result{
			Outcome:  &rds.Outcome{Log: &trace.RunLog{}},
			Analysis: &core.Analysis{},
		}
	}
	hole := len(plan.Cells) / 2
	results[hole] = nil
	_, err = plan.Assemble(results, time.Time{})
	if err == nil {
		t.Fatal("missing cell result accepted")
	}
	if !strings.Contains(err.Error(), "missing result") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCellErrorExported: the exported wrapper must produce the same
// canonical message the in-process runner uses.
func TestCellErrorExported(t *testing.T) {
	plan, err := BuildPlan(Config{
		Seed:      31,
		Subjects:  subjects(t, "T5"),
		Scenarios: shortScenarios,
	})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("kaboom")
	got := plan.CellError(plan.Cells[0], cause)
	if got == nil || !errors.Is(got, cause) {
		t.Fatalf("CellError must wrap the cause, got %v", got)
	}
	if !strings.Contains(got.Error(), "T5") {
		t.Fatalf("CellError must identify the subject: %v", got)
	}
}

// TestTotalFailedInjectionsAndControlsDropped sum across every drive,
// training included.
func TestTotalFailedInjectionsAndControlsDropped(t *testing.T) {
	res := &Result{Subjects: []SubjectResult{
		{
			Training: &core.Result{Outcome: &rds.Outcome{FailedInjections: 1, ClientStats: bridge.ClientStats{ControlsDropped: 2}}},
			Runs: []ScenarioResult{{
				Golden: &core.Result{Outcome: &rds.Outcome{ClientStats: bridge.ClientStats{ControlsDropped: 3}}},
				Faulty: &core.Result{Outcome: &rds.Outcome{FailedInjections: 4, ClientStats: bridge.ClientStats{ControlsDropped: 5}}},
			}},
		},
		{
			Runs: []ScenarioResult{{
				Golden: &core.Result{Outcome: &rds.Outcome{}},
				Faulty: &core.Result{Outcome: &rds.Outcome{FailedInjections: 6}},
			}},
		},
	}}
	if got := res.TotalFailedInjections(); got != 11 {
		t.Fatalf("TotalFailedInjections = %d, want 11", got)
	}
	if got := res.TotalControlsDropped(); got != 10 {
		t.Fatalf("TotalControlsDropped = %d, want 10", got)
	}
}
