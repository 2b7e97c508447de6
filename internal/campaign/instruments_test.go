package campaign

import (
	"testing"
	"time"

	"teledrive/internal/faultinject"
	"teledrive/internal/netem"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// TestFailedInjectionsCounter forces injection failures: after the plan
// phase, one faulty cell's assignment is rewritten to an unknown
// condition, which the injector refuses at every POI. The refusals must
// surface on teledrive_campaign_failed_injections_total — the counter
// an operator watches to spot invalid test executions mid-campaign.
func TestFailedInjectionsCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	plan, err := BuildPlan(Config{
		Seed:      3,
		Subjects:  subjects(t, "T5"),
		Scenarios: shortScenarios,
		Workers:   1,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for ci := range plan.Cells {
		if plan.Cells[ci].Kind != CellFaulty {
			continue
		}
		for j := range plan.Cells[ci].Spec.Faults {
			plan.Cells[ci].Spec.Faults[j] = faultinject.Condition(99)
		}
		mutated = true
		break
	}
	if !mutated {
		t.Fatal("plan produced no faulty cell to sabotage")
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}

	var want uint64
	for _, sub := range res.Subjects {
		if sub.Training != nil {
			want += uint64(sub.Training.Outcome.FailedInjections)
		}
		for _, run := range sub.Runs {
			want += uint64(run.Golden.Outcome.FailedInjections)
			want += uint64(run.Faulty.Outcome.FailedInjections)
		}
	}
	got := reg.Counter("teledrive_campaign_failed_injections_total", "").Value()
	if got == 0 {
		t.Fatal("failed_injections counter stayed 0 despite an unknown condition at every POI of a faulty cell")
	}
	if got != want {
		t.Fatalf("failed_injections counter = %d, want %d (sum of cell outcomes)", got, want)
	}

	ins := NewInstruments(reg)
	if planned, done := ins.CellsPlanned.Value(), ins.Done(); planned != uint64(len(plan.Cells)) || done != planned {
		t.Fatalf("cells planned=%d done=%d, want both %d", planned, done, len(plan.Cells))
	}
	if inflight := ins.CellsInFlight.Value(); inflight != 0 {
		t.Fatalf("cells_in_flight = %d after execute, want 0", inflight)
	}
	if failed := ins.CellsFailed.Value(); failed != 0 {
		t.Fatalf("cells_failed = %d: a refused injection marks the cell invalid, not errored", failed)
	}
}

// saturatingStack wraps the standard stack with a permanent 2 s
// uplink-only delay: camera frames flow normally on the downlink, but
// each control stays unacknowledged for ~2 s, so at the 20 ms control
// period the client's in-flight count blows past the shrunken send
// window and SendControl hits ErrWindowFull.
func saturatingStack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*session.Stack, error) {
	st, err := session.NewStack(clock, w, ego, seed, topts)
	if err != nil {
		return nil, err
	}
	if err := st.Link.Faults().Up.AddRule(netem.Rule{Delay: 2 * time.Second}); err != nil {
		return nil, err
	}
	return st, nil
}

// TestControlsDroppedCounter saturates one cell's uplink and checks the
// drops aggregate onto teledrive_campaign_controls_dropped_total. Runs
// on the parallel execute path so the per-worker instrument wiring is
// covered too.
func TestControlsDroppedCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	plan, err := BuildPlan(Config{
		Seed:      3,
		Subjects:  subjects(t, "T5"),
		Scenarios: shortScenarios,
		Workers:   2,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sabotaged := false
	for ci := range plan.Cells {
		if plan.Cells[ci].Kind != CellGolden {
			continue
		}
		plan.Cells[ci].Spec.Stack = saturatingStack
		plan.Cells[ci].Spec.Transport = &transport.Options{Name: "bridge", Reliable: true, Window: 64}
		sabotaged = true
		break
	}
	if !sabotaged {
		t.Fatal("plan produced no golden cell to saturate")
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}

	var want uint64
	for _, sub := range res.Subjects {
		for _, run := range sub.Runs {
			want += run.Golden.Outcome.ClientStats.ControlsDropped
			want += run.Faulty.Outcome.ClientStats.ControlsDropped
		}
	}
	got := reg.Counter("teledrive_campaign_controls_dropped_total", "").Value()
	if got == 0 {
		t.Fatal("controls_dropped counter stayed 0 despite a saturated uplink")
	}
	if got != want {
		t.Fatalf("controls_dropped counter = %d, want %d (sum of cell outcomes)", got, want)
	}

	ins := NewInstruments(reg)
	var perWorker uint64
	for w := 0; w < 2; w++ {
		perWorker += ins.WorkerCells(w).Value()
	}
	if perWorker != uint64(len(plan.Cells)) {
		t.Fatalf("worker_cells sum = %d, want %d", perWorker, len(plan.Cells))
	}
}
