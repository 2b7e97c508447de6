// Package trace implements the paper's §V-F data logging: per-tick ego
// and other-vehicle records, collision and lane-invasion events, and the
// fault-injection log, with CSV export and JSON round-tripping for
// offline analysis.
package trace

import (
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/world"
)

// EgoRecord is one tick of ego-vehicle telemetry (§V-F: timestamp, x, y,
// z, v, a, throttle, steer, brake). The simulator is planar, so the z
// components are always zero but are kept for log-format fidelity.
type EgoRecord struct {
	Time  time.Duration `json:"time_ns"`
	Frame uint64        `json:"frame"`
	X     float64       `json:"x"`
	Y     float64       `json:"y"`
	Z     float64       `json:"z"`
	Vx    float64       `json:"vx"`
	Vy    float64       `json:"vy"`
	Vz    float64       `json:"vz"`
	Ax    float64       `json:"ax"`
	Ay    float64       `json:"ay"`
	Az    float64       `json:"az"`
	// Station is the ego's arc-length position on the scenario route —
	// not in the paper's log but needed by the TTC/Fig-4 pipelines.
	Station float64 `json:"station"`
	// Lateral is the signed offset from the route centerline, m.
	Lateral  float64 `json:"lateral"`
	Speed    float64 `json:"speed"`
	Throttle float64 `json:"throttle"`
	Steer    float64 `json:"steer"`
	Brake    float64 `json:"brake"`
}

// OtherRecord is one tick of another road user's telemetry (§V-F:
// actor, timestamp, distance from ego, position, velocity, ...).
type OtherRecord struct {
	Actor    world.ActorID `json:"actor"`
	Time     time.Duration `json:"time_ns"`
	Frame    uint64        `json:"frame"`
	Distance float64       `json:"distance"` // euclidean distance from ego
	X        float64       `json:"x"`
	Y        float64       `json:"y"`
	Z        float64       `json:"z"`
	Vx       float64       `json:"vx"`
	Vy       float64       `json:"vy"`
	Vz       float64       `json:"vz"`
	Station  float64       `json:"station"`
	Lateral  float64       `json:"lateral"`
	Speed    float64       `json:"speed"`
}

// FaultRecord is one fault-injection log line (§V-F: timestamp, fault
// type, value, added/deleted).
type FaultRecord struct {
	Time   time.Duration `json:"time_ns"`
	Link   string        `json:"link"`   // "uplink" / "downlink"
	Action string        `json:"action"` // "add" / "delete"
	Desc   string        `json:"desc"`   // tc-style rule description
	Label  string        `json:"label"`  // condition label, e.g. "50ms", "5%"
}

// CollisionRecord mirrors world.CollisionEvent in a JSON-stable form.
type CollisionRecord struct {
	Time   time.Duration `json:"time_ns"`
	Frame  uint64        `json:"frame"`
	Actor  world.ActorID `json:"actor"`
	Other  world.ActorID `json:"other"`
	SpeedA float64       `json:"speed_a"`
	SpeedB float64       `json:"speed_b"`
	// Label is the fault condition active at impact ("NFI" when none).
	Label string `json:"label"`
}

// LaneRecord mirrors world.LaneInvasionEvent.
type LaneRecord struct {
	Time    time.Duration `json:"time_ns"`
	Frame   uint64        `json:"frame"`
	Actor   world.ActorID `json:"actor"`
	Kind    string        `json:"kind"`
	LaneID  string        `json:"lane_id"`
	Lateral float64       `json:"lateral"`
	Label   string        `json:"label"`
}

// RunLog is the complete record of one drive (one golden or faulty run
// of one subject through one scenario).
type RunLog struct {
	Subject  string `json:"subject"`
	Scenario string `json:"scenario"`
	// RunType is "golden" (NFI) or "faulty" (FI), §V-E2.
	RunType string `json:"run_type"`
	Seed    int64  `json:"seed"`

	Ego           []EgoRecord       `json:"ego"`
	Others        []OtherRecord     `json:"others"`
	Collisions    []CollisionRecord `json:"collisions"`
	LaneInvasions []LaneRecord      `json:"lane_invasions"`
	Faults        []FaultRecord     `json:"faults"`

	// ConditionSpans records which fault condition was active when —
	// the per-condition analysis (Tables III/IV columns) slices the
	// telemetry with these.
	ConditionSpans []ConditionSpan `json:"condition_spans"`
}

// Reset clears the log for reuse, retaining the capacity of every
// record slice — a campaign worker drives thousands of cells through
// one RunLog without reallocating the telemetry arrays.
func (l *RunLog) Reset() {
	l.Subject, l.Scenario, l.RunType = "", "", ""
	l.Seed = 0
	l.Ego = l.Ego[:0]
	l.Others = l.Others[:0]
	l.Collisions = l.Collisions[:0]
	l.LaneInvasions = l.LaneInvasions[:0]
	l.Faults = l.Faults[:0]
	l.ConditionSpans = l.ConditionSpans[:0]
}

// Events returns a copy of the log's header and sparse event records —
// collisions, lane invasions, faults, condition spans — without the
// per-tick Ego and Others series. It detaches what a campaign keeps of
// a drive from an arena-owned log (session.RunScratch reuses one RunLog
// across a worker's cells) at a few hundred bytes instead of megabytes.
// Records hold no references, so the copy shares nothing with l. An
// empty list copies as nil whether or not l's slice was allocated, so
// equal drives give deeply equal copies on a fresh or a used arena.
func (l *RunLog) Events() *RunLog {
	return &RunLog{
		Subject: l.Subject, Scenario: l.Scenario, RunType: l.RunType, Seed: l.Seed,
		Collisions:     append([]CollisionRecord(nil), l.Collisions...),
		LaneInvasions:  append([]LaneRecord(nil), l.LaneInvasions...),
		Faults:         append([]FaultRecord(nil), l.Faults...),
		ConditionSpans: append([]ConditionSpan(nil), l.ConditionSpans...),
	}
}

// ConditionSpan marks a time interval during which a fault condition
// was active. Label "NFI" spans are implicit (gaps between spans).
type ConditionSpan struct {
	Label string        `json:"label"`
	From  time.Duration `json:"from_ns"`
	To    time.Duration `json:"to_ns"` // zero To means "until run end"
}

// ConditionAt returns the label of the condition active at time t
// ("NFI" when none).
func (l *RunLog) ConditionAt(t time.Duration) string {
	for _, span := range l.ConditionSpans {
		if t >= span.From && (span.To == 0 || t < span.To) {
			return span.Label
		}
	}
	return "NFI"
}

// Duration returns the time of the last ego record.
func (l *RunLog) Duration() time.Duration {
	if len(l.Ego) == 0 {
		return 0
	}
	return l.Ego[len(l.Ego)-1].Time
}

// Recorder samples a world into a RunLog at every physics tick.
type Recorder struct {
	Log *RunLog

	w     *world.World
	ego   *world.Actor
	route *geom.Path

	// Warm-start projectors onto the route, one per sampled actor —
	// every actor is projected every tick, and each moves continuously
	// along its own stretch of the route.
	egoProj    *geom.Projector
	otherProjs map[world.ActorID]*geom.Projector

	activeLabel string
}

// NewPassiveRecorder creates a recorder for a run. It installs no world
// hooks: the caller delivers collision and lane-invasion events
// through RecordCollision/RecordLaneInvasion (the session layer fans
// them out through its observer spine). route provides ego/other
// station coordinates; it may be nil (stations logged as 0).
func NewPassiveRecorder(w *world.World, ego *world.Actor, route *geom.Path, log *RunLog) *Recorder {
	r := &Recorder{Log: log, w: w, ego: ego, route: route}
	if route != nil {
		r.egoProj = geom.NewProjector(route)
		r.otherProjs = make(map[world.ActorID]*geom.Projector)
	}
	return r
}

// RecordCollision appends a collision record labelled with the active
// fault condition.
func (r *Recorder) RecordCollision(ev world.CollisionEvent) {
	r.Log.Collisions = append(r.Log.Collisions, CollisionRecord{
		Time: ev.Time, Frame: ev.Frame, Actor: ev.Actor, Other: ev.Other,
		SpeedA: ev.SpeedA, SpeedB: ev.SpeedB, Label: r.currentLabel(),
	})
}

// RecordLaneInvasion appends a lane-invasion record labelled with the
// active fault condition.
func (r *Recorder) RecordLaneInvasion(ev world.LaneInvasionEvent) {
	r.Log.LaneInvasions = append(r.Log.LaneInvasions, LaneRecord{
		Time: ev.Time, Frame: ev.Frame, Actor: ev.Actor,
		Kind: ev.Kind.String(), LaneID: ev.LaneID, Lateral: ev.Lateral,
		Label: r.currentLabel(),
	})
}

func (r *Recorder) currentLabel() string {
	if r.activeLabel == "" {
		return "NFI"
	}
	return r.activeLabel
}

// SetCondition marks the start (label != "") or end (label == "") of a
// fault condition, updating the span list.
func (r *Recorder) SetCondition(now time.Duration, label string) {
	if r.activeLabel != "" {
		// Close the open span.
		for i := len(r.Log.ConditionSpans) - 1; i >= 0; i-- {
			if r.Log.ConditionSpans[i].To == 0 && r.Log.ConditionSpans[i].Label == r.activeLabel {
				r.Log.ConditionSpans[i].To = now
				break
			}
		}
	}
	r.activeLabel = label
	if label != "" {
		r.Log.ConditionSpans = append(r.Log.ConditionSpans, ConditionSpan{Label: label, From: now})
	}
}

// RecordFault appends a fault-injection log line.
func (r *Recorder) RecordFault(now time.Duration, link, action, desc, label string) {
	r.Log.Faults = append(r.Log.Faults, FaultRecord{
		Time: now, Link: link, Action: action, Desc: desc, Label: label,
	})
}

// Sample logs one tick of telemetry. Call it from the server's OnTick.
func (r *Recorder) Sample(now time.Duration) {
	egoPose := r.ego.Pose()
	egoVel := r.ego.Velocity()
	station, lateral := 0.0, 0.0
	if r.egoProj != nil {
		station, lateral = r.egoProj.Project(egoPose.Pos)
	}
	var throttle, steer, brake float64
	if r.ego.Plant != nil {
		c := r.ego.Plant.Control()
		throttle, steer, brake = c.Throttle, c.Steer, c.Brake
	}
	accel := egoPose.Forward().Scale(r.ego.Accel())
	r.Log.Ego = append(r.Log.Ego, EgoRecord{
		Time: now, Frame: r.w.Frame(),
		X: egoPose.Pos.X, Y: egoPose.Pos.Y,
		Vx: egoVel.X, Vy: egoVel.Y,
		Ax: accel.X, Ay: accel.Y,
		Station: station, Lateral: lateral, Speed: r.ego.Speed(),
		Throttle: throttle, Steer: steer, Brake: brake,
	})
	for _, a := range r.w.Actors() {
		if a.ID == r.ego.ID {
			continue
		}
		pose := a.Pose()
		vel := a.Velocity()
		st, lat := 0.0, 0.0
		if r.otherProjs != nil {
			proj, ok := r.otherProjs[a.ID]
			if !ok {
				proj = geom.NewProjector(r.route)
				r.otherProjs[a.ID] = proj
			}
			st, lat = proj.Project(pose.Pos)
		}
		r.Log.Others = append(r.Log.Others, OtherRecord{
			Actor: a.ID, Time: now, Frame: r.w.Frame(),
			Distance: pose.Pos.Dist(egoPose.Pos),
			X:        pose.Pos.X, Y: pose.Pos.Y,
			Vx: vel.X, Vy: vel.Y,
			Station: st, Lateral: lat, Speed: a.Speed(),
		})
	}
}
