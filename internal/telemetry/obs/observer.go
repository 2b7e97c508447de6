// Package obs adapts the telemetry core to the session observer spine.
// It lives in a subpackage so the core (imported by netem, bridge and
// campaign) never imports internal/session — that would be an import
// cycle through bridge and transport.
package obs

import (
	"time"

	"teledrive/internal/session"
	"teledrive/internal/telemetry"
	"teledrive/internal/world"
)

// SessionObserver turns the session spine's event stream into
// instruments. One observer serves one run; concurrent runs (campaign
// workers) each bind their own observer against a shared registry, so
// the atomic instruments aggregate campaign-wide. Every handle is
// pre-bound in NewSessionObserver — the Tick and Frame hot paths are
// single atomic increments (plus one histogram observe for Frame) with
// zero allocations and zero map lookups, pinned by the package's alloc
// test and BenchmarkTelemetryObserver.
//
// An optional EventSink mirrors the sparse events (phases, faults,
// condition spans, collisions, lane invasions) as JSONL; ticks and
// frames stay counters-only.
type SessionObserver struct {
	ticks        *telemetry.Counter
	frames       *telemetry.Counter
	frameLatency *telemetry.Histogram
	faultAdd     *telemetry.Counter
	faultDelete  *telemetry.Counter
	faultError   *telemetry.Counter
	collisions   *telemetry.Counter
	invasions    *telemetry.Counter
	spans        *telemetry.Counter
	spansActive  *telemetry.Gauge
	phases       [3]*telemetry.Counter

	// spanOpen tracks whether THIS run has an open condition span, so
	// the shared spansActive gauge never double-decrements on the
	// unconditional teardown Condition(end, "") broadcast.
	spanOpen bool

	sink *telemetry.EventSink
}

var _ session.Observer = (*SessionObserver)(nil)

// NewSessionObserver binds the session instrument set in reg. sink may
// be nil (no event stream).
func NewSessionObserver(reg *telemetry.Registry, sink *telemetry.EventSink) *SessionObserver {
	faults := reg.CounterVec("teledrive_session_faults_total",
		"NETEM rule changes observed on the spine, by action (add/delete/error).", "action")
	phases := reg.CounterVec("teledrive_session_phases_total",
		"Run lifecycle transitions, by phase.", "phase")
	o := &SessionObserver{
		ticks: reg.Counter("teledrive_session_ticks_total",
			"Physics ticks observed on the session spine."),
		frames: reg.Counter("teledrive_session_frames_total",
			"Operator-display frame updates observed on the session spine."),
		frameLatency: reg.Histogram("teledrive_session_frame_latency_seconds",
			"Transport latency of displayed frames (simulated time).", telemetry.DefLatencyBuckets()),
		faultAdd:    faults.With("add"),
		faultDelete: faults.With("delete"),
		faultError:  faults.With("error"),
		collisions: reg.Counter("teledrive_session_collisions_total",
			"World collision events observed on the session spine."),
		invasions: reg.Counter("teledrive_session_lane_invasions_total",
			"World lane-invasion events observed on the session spine."),
		spans: reg.Counter("teledrive_session_condition_spans_total",
			"Fault-condition spans opened (persistent rules and POI injections)."),
		spansActive: reg.Gauge("teledrive_session_conditions_active",
			"Fault-condition spans currently open across in-flight runs."),
		sink: sink,
	}
	for p := session.PhaseWire; p <= session.PhaseTeardown; p++ {
		o.phases[p] = phases.With(p.String())
	}
	return o
}

// RunPhase implements session.Observer.
func (o *SessionObserver) RunPhase(p session.Phase, now time.Duration) {
	if p >= session.PhaseWire && p <= session.PhaseTeardown {
		o.phases[p].Inc()
	}
	o.sink.EmitAt(now, telemetry.Event{Kind: "phase", Phase: p.String()})
}

// Tick implements session.Observer: one atomic increment.
func (o *SessionObserver) Tick(time.Duration) { o.ticks.Inc() }

// Frame implements session.Observer: an increment and a histogram
// observation of the frame's transport latency.
func (o *SessionObserver) Frame(_ time.Duration, _ uint64, latency time.Duration) {
	o.frames.Inc()
	o.frameLatency.ObserveDuration(latency)
}

// Fault implements session.Observer.
func (o *SessionObserver) Fault(now time.Duration, link, action, desc, label string) {
	switch action {
	case "add":
		o.faultAdd.Inc()
	case "delete":
		o.faultDelete.Inc()
	default:
		o.faultError.Inc()
	}
	o.sink.EmitAt(now, telemetry.Event{Kind: "fault", Link: link, Action: action, Desc: desc, Label: label})
}

// Collision implements session.Observer.
func (o *SessionObserver) Collision(ev world.CollisionEvent) {
	o.collisions.Inc()
	o.sink.EmitAt(ev.Time, telemetry.Event{Kind: "collision", Actor: int(ev.Actor), Other: int(ev.Other)})
}

// LaneInvasion implements session.Observer.
func (o *SessionObserver) LaneInvasion(ev world.LaneInvasionEvent) {
	o.invasions.Inc()
	o.sink.EmitAt(ev.Time, telemetry.Event{Kind: "lane_invasion", Actor: int(ev.Actor)})
}

// Condition implements session.Observer: label != "" opens a span,
// label == "" closes the open one (the session broadcasts a closing
// event at teardown even when no span is open; that must not move the
// gauge).
func (o *SessionObserver) Condition(now time.Duration, label string) {
	if label != "" {
		if !o.spanOpen {
			o.spanOpen = true
			o.spansActive.Inc()
		}
		o.spans.Inc()
	} else if o.spanOpen {
		o.spanOpen = false
		o.spansActive.Dec()
	}
	o.sink.EmitAt(now, telemetry.Event{Kind: "condition", Label: label})
}
