// Package session owns the run lifecycle of one remote-driving test —
// wire → run → teardown — over the paper's §III-A stack: the Stack
// (the bridge server as the vehicle plant, the netem link, the bridge
// client at the operator station), the Operator (the driver at the
// station) and the Supervisor (scenario supervision: POI-driven fault
// scheduling and end detection). A structured Observer spine threads
// through all of them, so data logging (trace.Recorder via Record) is
// one subscriber among many rather than the hard-wired owner of the
// run's hooks.
//
// rds.Run assembles the standard drive (NewStack, driver-model
// operator, POI supervisor); campaign, validity and the model-vehicle
// experiments all execute through it. Operator and Supervisor stay
// interfaces so tests can drive a session with fakes.
package session

import (
	"fmt"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// Link is the communication network subsystem between plant and
// operator station. NetemLink is the one implementation.
type Link interface {
	// Faults exposes the NETEM-emulated fault surface.
	Faults() *netem.Duplex
}

// Operator is the operator-station subsystem: each control period it
// observes its display and decides the next driving command.
// *driver.Driver — the modelled human — is the standard
// implementation.
type Operator interface {
	Tick(now time.Duration) vehicle.Control
}

// Supervisor watches the drive on the physics tick: it schedules
// faults, detects the scenario end, and tears its effects down when
// the run stops. POISupervisor is the paper's implementation.
type Supervisor interface {
	// OnTick runs after every physics step (after the spine's Tick
	// broadcast, so observers sample the pre-supervision state).
	OnTick(now time.Duration)
	// Done reports whether the scenario has ended.
	Done() bool
	// Finish tears down supervisor effects still active at run end
	// (clears injected faults, closes condition spans).
	Finish(now time.Duration)
}

// runChunk is the clock-advance granularity of the run loop (simulated
// time between supervisor checks).
const runChunk = 100 * time.Millisecond

// Session wires the stack, operator, supervisor and observer spine
// into one runnable drive. All fields except Wire are required.
type Session struct {
	Clock *simclock.Clock
	// Stack is the built plant, link and station client; the operator's
	// commands go out through Stack.Client.
	Stack      *Stack
	Operator   Operator
	Supervisor Supervisor
	// Observers is the event spine; order matters (the trace recorder
	// conventionally first).
	Observers Observers

	// ControlPeriod is the operator station's command period.
	ControlPeriod time.Duration
	// Timeout aborts a run whose supervisor never reports done.
	Timeout time.Duration

	// Wire, when non-nil, runs during the wire phase — after the
	// operator loop is scheduled, before the plant starts. Stack-
	// specific setup (frame interval, persistent link rules, weather)
	// goes here so its clock-scheduling order is preserved exactly.
	Wire func(spine Observers) error
}

// Result is what the lifecycle itself observed; subsystem-specific
// outcomes (telemetry, stats, injection counts) live with their
// subsystems.
type Result struct {
	// Completed is true when the supervisor reported the scenario done;
	// false means Timeout expired first.
	Completed bool
	// WallTicks counts physics ticks executed.
	WallTicks uint64
}

func (s *Session) validate() error {
	switch {
	case s.Clock == nil:
		return fmt.Errorf("session: nil clock")
	case s.Stack == nil:
		return fmt.Errorf("session: nil stack")
	case s.Operator == nil:
		return fmt.Errorf("session: nil operator")
	case s.Supervisor == nil:
		return fmt.Errorf("session: nil supervisor")
	case s.ControlPeriod <= 0:
		return fmt.Errorf("session: control period %v must be positive", s.ControlPeriod)
	case s.Timeout <= 0:
		return fmt.Errorf("session: timeout %v must be positive", s.Timeout)
	}
	return nil
}

// Run executes the wired session to scenario end or timeout.
//
// The wire phase preserves a strict scheduling order — operator loop,
// then Wire hook, then plant loops — because simclock fires
// same-instant timers in scheduling order and the campaign's
// bit-identity guarantee (the fingerprint suite) depends on that
// interleaving.
func (s *Session) Run() (Result, error) {
	var res Result
	if err := s.validate(); err != nil {
		return res, err
	}
	// Wire phase: world events fan out to the spine, the plant tick
	// drives observers then supervision, the operator loop rides the
	// control period.
	s.Observers.RunPhase(PhaseWire, s.Clock.Now())
	plant := s.Stack.Plant
	w := plant.World()
	prevCol := w.OnCollision
	w.OnCollision = func(ev world.CollisionEvent) {
		if prevCol != nil {
			prevCol(ev)
		}
		s.Observers.Collision(ev)
	}
	prevLane := w.OnLaneInvasion
	w.OnLaneInvasion = func(ev world.LaneInvasionEvent) {
		if prevLane != nil {
			prevLane(ev)
		}
		s.Observers.LaneInvasion(ev)
	}
	plant.SetOnTick(func(now time.Duration) {
		res.WallTicks++
		s.Observers.Tick(now)
		s.Supervisor.OnTick(now)
	})

	// Operator station loop: poll the operator at the control period
	// and send its command to the plant. One owned timer re-armed per
	// tick (Reschedule consumes one sequence number, exactly like the
	// Schedule-per-tick it replaced, so event order is unchanged).
	var stationTimer *simclock.Timer
	stationTimer = s.Clock.NewTimer(func(now time.Duration) {
		// A full send window behaves like a congested socket: this
		// command is lost and the next tick retries.
		_ = s.Stack.Client.SendControl(s.Operator.Tick(now)) //lint:allow errswallow the only error is a full send window, which the client counts in ClientStats.ControlsDropped
		s.Clock.Reschedule(stationTimer, s.ControlPeriod)
	})
	s.Clock.Reschedule(stationTimer, s.ControlPeriod)

	if s.Wire != nil {
		if err := s.Wire(s.Observers); err != nil {
			return res, err
		}
	}

	// Run phase: advance simulated time in chunks until the supervisor
	// ends the scenario or the timeout expires.
	plant.Start()
	s.Observers.RunPhase(PhaseRun, s.Clock.Now())
	for !s.Supervisor.Done() && s.Clock.Now() < s.Timeout {
		s.Clock.Advance(runChunk)
	}

	// Teardown phase: stop the loops, clear supervisor effects, close
	// any still-open condition span.
	plant.Stop()
	end := s.Clock.Now()
	s.Supervisor.Finish(end)
	s.Observers.Condition(end, "")
	s.Observers.RunPhase(PhaseTeardown, end)

	res.Completed = s.Supervisor.Done()
	return res, nil
}
