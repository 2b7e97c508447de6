package session

import (
	"fmt"
	"testing"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
	"teledrive/internal/simclock"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
)

// buildStack wires a real bridge stack over the follow scenario.
func buildStack(t *testing.T) (*simclock.Clock, *scenario.Built, *Stack) {
	t.Helper()
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	stack, err := NewStack(clock, built.World, built.Ego, 1, transport.Options{Name: "bridge", Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	return clock, built, stack
}

// constOperator always commands the same control.
type constOperator struct{ ctrl vehicle.Control }

func (o constOperator) Tick(time.Duration) vehicle.Control { return o.ctrl }

// newDriver builds the modelled human for a built scenario — the POI
// tests need an operator that actually tracks the route.
func newDriver(t *testing.T, clock *simclock.Clock, built *scenario.Built, stack *Stack) Operator {
	t.Helper()
	prof, ok := driver.SubjectByName("T5")
	if !ok {
		t.Fatal("subject T5 missing")
	}
	drv, err := driver.New(clock, stack.Client, driver.DefaultConfig(prof, built.Task))
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

// stopAfter ends the scenario once the clock passes a deadline.
type stopAfter struct {
	clock *simclock.Clock
	at    time.Duration
}

func (s *stopAfter) OnTick(time.Duration) {}
func (s *stopAfter) Done() bool           { return s.clock.Now() >= s.at }
func (s *stopAfter) Finish(time.Duration) {}

// eventLog records spine events for order assertions.
type eventLog struct {
	NopObserver
	events []string
}

func (e *eventLog) add(s string) { e.events = append(e.events, s) }

func (e *eventLog) RunPhase(p Phase, now time.Duration) {
	e.add(fmt.Sprintf("phase:%s@%v", p, now))
}
func (e *eventLog) Condition(now time.Duration, label string) {
	e.add(fmt.Sprintf("cond:%q@%v", label, now))
}

func TestSessionValidate(t *testing.T) {
	clock, _, stack := buildStack(t)
	full := func() *Session {
		return &Session{
			Clock:         clock,
			Stack:         stack,
			Operator:      constOperator{},
			Supervisor:    &stopAfter{clock: clock, at: time.Second},
			ControlPeriod: 20 * time.Millisecond,
			Timeout:       time.Second,
		}
	}
	if _, err := full().Run(); err != nil {
		t.Fatalf("complete session: %v", err)
	}
	breakers := map[string]func(*Session){
		"clock":    func(s *Session) { s.Clock = nil },
		"stack":    func(s *Session) { s.Stack = nil },
		"operator": func(s *Session) { s.Operator = nil },
		"sup":      func(s *Session) { s.Supervisor = nil },
		"period":   func(s *Session) { s.ControlPeriod = 0 },
		"timeout":  func(s *Session) { s.Timeout = -time.Second },
	}
	for name, brk := range breakers {
		s := full()
		brk(s)
		if _, err := s.Run(); err == nil {
			t.Errorf("%s: invalid session accepted", name)
		}
	}
}

func TestSessionRunsToSupervisorDone(t *testing.T) {
	clock, _, stack := buildStack(t)
	sess := &Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      constOperator{ctrl: vehicle.Control{Throttle: 0.3}},
		Supervisor:    &stopAfter{clock: clock, at: 2 * time.Second},
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Minute,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("expected completion, got %+v", res)
	}
	// 2 s at the 20 ms physics tick.
	if res.WallTicks != 100 {
		t.Fatalf("WallTicks = %d, want 100", res.WallTicks)
	}
	if stack.Plant.Stats().ControlsApplied == 0 {
		t.Fatal("operator commands never reached the plant")
	}
}

func TestSessionTimeout(t *testing.T) {
	clock, _, stack := buildStack(t)
	never := &stopAfter{clock: clock, at: time.Hour}
	sess := &Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      constOperator{},
		Supervisor:    never,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Second,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatalf("expected timeout, got %+v", res)
	}
}

func TestSessionPhaseAndConditionOrder(t *testing.T) {
	clock, _, stack := buildStack(t)
	log := &eventLog{}
	sess := &Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      constOperator{},
		Supervisor:    &stopAfter{clock: clock, at: 100 * time.Millisecond},
		Observers:     Observers{log},
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Second,
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"phase:wire@0s",
		"phase:run@0s",
		`cond:""@100ms`, // final span close at teardown
		"phase:teardown@100ms",
	}
	if len(log.events) != len(want) {
		t.Fatalf("events = %q, want %q", log.events, want)
	}
	for i, w := range want {
		if log.events[i] != w {
			t.Fatalf("event[%d] = %q, want %q", i, log.events[i], w)
		}
	}
}

func TestPOISupervisorInjectsPerPOI(t *testing.T) {
	clock, built, stack := buildStack(t)
	scn := scenario.FollowVehicle()
	inj, err := faultinject.NewInjector(stack.Link.Faults(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)
	spine := Observers{Record(rec)}
	inj.OnChange = spine.Fault
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondDelay50
	}
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, nil, spine)

	sess := &Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      newDriver(t, clock, built, stack),
		Supervisor:    sup,
		Observers:     spine,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       scn.Timeout,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if sup.Injected() != len(scn.POIs) {
		t.Fatalf("Injected = %d, want one per POI (%d)", sup.Injected(), len(scn.POIs))
	}
	if sup.FailedInjections() != 0 {
		t.Fatalf("FailedInjections = %d, want 0", sup.FailedInjections())
	}
	if sup.FinalStation() < scn.EndStation {
		t.Fatalf("FinalStation %.1f short of end station %.1f", sup.FinalStation(), scn.EndStation)
	}
	// Every injection leaves add+delete fault records and a closed span.
	if len(log.Faults) == 0 || len(log.ConditionSpans) != len(scn.POIs) {
		t.Fatalf("faults=%d spans=%d, want >0 and %d", len(log.Faults), len(log.ConditionSpans), len(scn.POIs))
	}
	for _, span := range log.ConditionSpans {
		if span.To == 0 {
			t.Fatalf("span %q left open", span.Label)
		}
	}
}

func TestPOISupervisorCountsFailedInjections(t *testing.T) {
	clock, built, stack := buildStack(t)
	scn := scenario.FollowVehicle()
	inj, err := faultinject.NewInjector(stack.Link.Faults(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)
	spine := Observers{Record(rec)}
	inj.OnChange = spine.Fault
	// An out-of-range condition value: Inject must refuse it.
	assign := make([]faultinject.Condition, len(scn.POIs))
	assign[0] = faultinject.Condition(99)
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, nil, spine)

	sess := &Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      newDriver(t, clock, built, stack),
		Supervisor:    sup,
		Observers:     spine,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       scn.Timeout,
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.FailedInjections() != 1 {
		t.Fatalf("FailedInjections = %d, want 1", sup.FailedInjections())
	}
	if sup.Injected() != 0 {
		t.Fatalf("Injected = %d, want 0", sup.Injected())
	}
	found := false
	for _, f := range log.Faults {
		if f.Action == "error" {
			found = true
		}
	}
	if !found {
		t.Fatal("failed injection left no action=error fault record")
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseWire: "wire", PhaseRun: "run", PhaseTeardown: "teardown",
		Phase(42): "phase(?)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestObserversBroadcastOrderAndNil(t *testing.T) {
	var nilSpine Observers
	nilSpine.Tick(0) // nil spine must be silent, not panic
	nilSpine.Fault(0, "l", "a", "d", "lb")

	a, b := &eventLog{}, &eventLog{}
	spine := Observers{a, b}
	spine.RunPhase(PhaseRun, time.Second)
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("broadcast missed an observer: %d/%d", len(a.events), len(b.events))
	}
}

// countObserver verifies spine hot-path methods stay allocation-free.
type countObserver struct {
	NopObserver
	ticks  uint64
	frames uint64
}

func (c *countObserver) Tick(time.Duration) { c.ticks++ }
func (c *countObserver) Frame(time.Duration, uint64, time.Duration) {
	c.frames++
}

func TestSpineBroadcastZeroAlloc(t *testing.T) {
	spine := Observers{&countObserver{}, &countObserver{}, NopObserver{}}
	if allocs := testing.AllocsPerRun(200, func() {
		spine.Tick(time.Second)
		spine.Frame(time.Second, 7, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("spine broadcast allocates %.1f allocs/op, want 0", allocs)
	}
}

// Compile-time checks: the stock parts satisfy the session interfaces.
// bench/probe.go needs Link, NetemLink, StackBuilder and NewStack as
// they are, and tier-1 `go build ./...` does not build the bench
// module, so these two lines are what keeps them in step.
var (
	_ Link         = NetemLink{}
	_ StackBuilder = NewStack
	_ Supervisor   = (*POISupervisor)(nil)
	_ Observer     = Record(nil)
)
