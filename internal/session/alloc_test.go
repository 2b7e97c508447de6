//go:build !race

package session

import (
	"testing"
	"time"

	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
)

// TestSupervisorTickSteadyStateAllocs pins the session layer's share of
// the per-tick hot path at zero allocations: the spine broadcast plus
// the POI supervisor's station projection and transition logic must add
// nothing to the PR 3 zero-allocation step guarantee. (The trace
// recorder's log appends are the run's data product, not loop overhead,
// so they are excluded here and measured by the bench harness instead.)
// Skipped under the race detector, whose instrumentation perturbs
// allocation counts.
func TestSupervisorTickSteadyStateAllocs(t *testing.T) {
	clock, built, stack := buildStack(t)
	inj, err := faultinject.NewInjector(stack.Link.Faults(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	scn := scenario.FollowVehicle()
	counter := &countObserver{}
	spine := Observers{counter, NopObserver{}}
	inj.OnChange = spine.Fault
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondDelay25
	}
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, nil, spine)

	// The composed per-tick callback exactly as Session.Run wires it.
	var ticks uint64
	onTick := func(now time.Duration) {
		ticks++
		spine.Tick(now)
		sup.OnTick(now)
	}

	now := time.Duration(0)
	for i := 0; i < 100; i++ { // warm up the projector and POI state
		now += 20 * time.Millisecond
		onTick(now)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		now += 20 * time.Millisecond
		onTick(now)
	}); allocs != 0 {
		t.Fatalf("session per-tick path allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if counter.ticks == 0 {
		t.Fatal("observer never ticked")
	}
}
