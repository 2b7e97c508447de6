package session

import (
	"time"

	"teledrive/internal/world"
)

// Phase labels the run-lifecycle stage an observer is notified about.
type Phase int

// Lifecycle phases in order. A session starts at PhaseWire: its stack
// is already built by the time Run is called.
const (
	PhaseWire Phase = iota
	PhaseRun
	PhaseTeardown
)

// String renders the phase.
func (p Phase) String() string {
	switch p {
	case PhaseWire:
		return "wire"
	case PhaseRun:
		return "run"
	case PhaseTeardown:
		return "teardown"
	default:
		return "phase(?)"
	}
}

// Observer receives the structured event stream of one run: the spine
// every layer (plant, link, operator, supervisor) reports into and the
// seam tracing/metrics plug into without touching the run loop.
// trace.Recorder subscribes through Record; additional observers ride
// along for free.
//
// Tick and Frame fire on the per-tick hot path: implementations must
// not allocate there (the session alloc test pins the spine's own
// broadcast at zero allocations). Embed NopObserver to subscribe to a
// subset of events.
type Observer interface {
	// RunPhase marks a lifecycle transition.
	RunPhase(p Phase, now time.Duration)
	// Tick fires after every physics step, before scenario supervision
	// acts on the stepped world.
	Tick(now time.Duration)
	// Frame fires when the operator station displays a newer frame.
	Frame(now time.Duration, frame uint64, latency time.Duration)
	// Fault mirrors every NETEM rule add/delete (and records failed
	// injections with action "error").
	Fault(now time.Duration, link, action, desc, label string)
	// Collision and LaneInvasion forward world events.
	Collision(ev world.CollisionEvent)
	LaneInvasion(ev world.LaneInvasionEvent)
	// Condition marks the start (label != "") or end (label == "") of a
	// fault-condition span.
	Condition(now time.Duration, label string)
}

// NopObserver implements every Observer event as a no-op; embed it and
// override the events of interest.
type NopObserver struct{}

// RunPhase implements Observer.
func (NopObserver) RunPhase(Phase, time.Duration) {}

// Tick implements Observer.
func (NopObserver) Tick(time.Duration) {}

// Frame implements Observer.
func (NopObserver) Frame(time.Duration, uint64, time.Duration) {}

// Fault implements Observer.
func (NopObserver) Fault(time.Duration, string, string, string, string) {}

// Collision implements Observer.
func (NopObserver) Collision(world.CollisionEvent) {}

// LaneInvasion implements Observer.
func (NopObserver) LaneInvasion(world.LaneInvasionEvent) {}

// Condition implements Observer.
func (NopObserver) Condition(time.Duration, string) {}

// Observers is the spine: an ordered broadcast list. Order matters —
// the trace recorder is conventionally first, so later observers see a
// world the log already describes. The broadcast methods are
// allocation-free; a nil spine is valid and silent.
type Observers []Observer

// RunPhase broadcasts a lifecycle transition.
func (os Observers) RunPhase(p Phase, now time.Duration) {
	for _, o := range os {
		o.RunPhase(p, now)
	}
}

// Tick broadcasts a physics tick.
func (os Observers) Tick(now time.Duration) {
	for _, o := range os {
		o.Tick(now)
	}
}

// Frame broadcasts a displayed frame.
func (os Observers) Frame(now time.Duration, frame uint64, latency time.Duration) {
	for _, o := range os {
		o.Frame(now, frame, latency)
	}
}

// Fault broadcasts a NETEM rule change. Its signature matches
// faultinject.Injector.OnChange so the spine wires in directly.
func (os Observers) Fault(now time.Duration, link, action, desc, label string) {
	for _, o := range os {
		o.Fault(now, link, action, desc, label)
	}
}

// Collision broadcasts a world collision event.
func (os Observers) Collision(ev world.CollisionEvent) {
	for _, o := range os {
		o.Collision(ev)
	}
}

// LaneInvasion broadcasts a world lane-invasion event.
func (os Observers) LaneInvasion(ev world.LaneInvasionEvent) {
	for _, o := range os {
		o.LaneInvasion(ev)
	}
}

// Condition broadcasts a fault-condition span boundary.
func (os Observers) Condition(now time.Duration, label string) {
	for _, o := range os {
		o.Condition(now, label)
	}
}
