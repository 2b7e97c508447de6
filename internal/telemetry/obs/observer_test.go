package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"teledrive/internal/session"
	"teledrive/internal/telemetry"
	"teledrive/internal/world"
)

func counterValue(t *testing.T, reg *telemetry.Registry, name string, labels []string, values ...string) uint64 {
	t.Helper()
	if len(labels) == 0 {
		return reg.Counter(name, "").Value()
	}
	return reg.CounterVec(name, "", labels...).With(values...).Value()
}

// TestSessionObserver drives every Observer method and checks the
// registry state afterwards — including the double-teardown Condition
// close, which must not drive the active-spans gauge negative.
func TestSessionObserver(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	o := NewSessionObserver(reg, telemetry.NewEventSink(&buf))

	o.RunPhase(session.PhaseWire, 0)
	o.RunPhase(session.PhaseRun, time.Second)
	for i := 0; i < 10; i++ {
		o.Tick(time.Duration(i) * 20 * time.Millisecond)
	}
	o.Frame(time.Second, 1, 30*time.Millisecond)
	o.Frame(time.Second, 2, 70*time.Millisecond)
	o.Fault(2*time.Second, "downlink", "add", "delay 50ms", "50ms")
	o.Condition(2*time.Second, "50ms")
	o.Fault(3*time.Second, "downlink", "delete", "delay 50ms", "50ms")
	o.Condition(3*time.Second, "")
	o.Fault(3*time.Second, "uplink", "error", "unknown condition", "")
	o.Collision(world.CollisionEvent{Time: 4 * time.Second, Actor: 1, Other: 2})
	o.LaneInvasion(world.LaneInvasionEvent{Time: 5 * time.Second, Actor: 1})
	o.RunPhase(session.PhaseTeardown, 6*time.Second)
	// The session broadcasts an unconditional span close at teardown;
	// with no span open it must not move the gauge.
	o.Condition(6*time.Second, "")

	checks := []struct {
		name   string
		labels []string
		values []string
		want   uint64
	}{
		{"teledrive_session_ticks_total", nil, nil, 10},
		{"teledrive_session_frames_total", nil, nil, 2},
		{"teledrive_session_collisions_total", nil, nil, 1},
		{"teledrive_session_lane_invasions_total", nil, nil, 1},
		{"teledrive_session_condition_spans_total", nil, nil, 1},
		{"teledrive_session_faults_total", []string{"action"}, []string{"add"}, 1},
		{"teledrive_session_faults_total", []string{"action"}, []string{"delete"}, 1},
		{"teledrive_session_faults_total", []string{"action"}, []string{"error"}, 1},
		{"teledrive_session_phases_total", []string{"phase"}, []string{session.PhaseWire.String()}, 1},
		{"teledrive_session_phases_total", []string{"phase"}, []string{session.PhaseRun.String()}, 1},
		{"teledrive_session_phases_total", []string{"phase"}, []string{session.PhaseTeardown.String()}, 1},
	}
	for _, c := range checks {
		if got := counterValue(t, reg, c.name, c.labels, c.values...); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.values, got, c.want)
		}
	}
	if got := reg.Gauge("teledrive_session_conditions_active", "").Value(); got != 0 {
		t.Errorf("conditions_active = %d after balanced open/close (+ teardown re-close), want 0", got)
	}
	h := reg.Histogram("teledrive_session_frame_latency_seconds", "", telemetry.DefLatencyBuckets())
	if h.Count() != 2 {
		t.Errorf("frame latency observations = %d, want 2", h.Count())
	}
	if h.Sum() != 0.1 {
		t.Errorf("frame latency sum = %v, want 0.1", h.Sum())
	}

	// The sparse events (phases, faults, condition spans, collision,
	// invasion) mirror to JSONL; ticks and frames stay counters-only.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("got %d JSONL events, want 11:\n%s", len(lines), buf.String())
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	want := map[string]int{"phase": 3, "fault": 3, "condition": 3, "collision": 1, "lane_invasion": 1}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("kind %q: %d events, want %d (all: %v)", k, kinds[k], n, kinds)
		}
	}
	if kinds["tick"]+kinds["frame"] != 0 {
		t.Errorf("hot-path events leaked into the sparse stream: %v", kinds)
	}
}

// TestSessionObserverSharedRegistry: two observers (two campaign cells)
// against one registry aggregate into the same instruments, and each
// run's span bookkeeping stays independent.
func TestSessionObserverSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewSessionObserver(reg, nil)
	b := NewSessionObserver(reg, nil)
	a.Tick(0)
	b.Tick(0)
	if got := reg.Counter("teledrive_session_ticks_total", "").Value(); got != 2 {
		t.Fatalf("shared ticks counter = %d, want 2", got)
	}
	gauge := reg.Gauge("teledrive_session_conditions_active", "")
	a.Condition(0, "50ms")
	b.Condition(0, "5ms")
	if got := gauge.Value(); got != 2 {
		t.Fatalf("conditions_active = %d with two open spans, want 2", got)
	}
	a.Condition(time.Second, "")
	a.Condition(time.Second, "") // a's teardown re-close must not touch b's span
	if got := gauge.Value(); got != 1 {
		t.Fatalf("conditions_active = %d, want 1 (b still open)", got)
	}
	b.Condition(time.Second, "")
	if got := gauge.Value(); got != 0 {
		t.Fatalf("conditions_active = %d, want 0", got)
	}
}
