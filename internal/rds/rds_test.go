package rds

import (
	"strings"
	"testing"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/netem"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

func subject(t *testing.T, name string) driver.Profile {
	t.Helper()
	p, ok := driver.SubjectByName(name)
	if !ok {
		t.Fatalf("unknown subject %s", name)
	}
	return p
}

func TestPaperStationSpec(t *testing.T) {
	spec := PaperStation()
	rows := spec.Rows()
	if len(rows) != 6 {
		t.Fatalf("Table I rows = %d, want 6", len(rows))
	}
	if rows[0][0] != "CPU and RAM" || rows[2][1] != "Logitech G27 steering wheel and pedals" {
		t.Fatalf("rows = %v", rows)
	}
	if spec.WheelRangeDeg != 900 {
		t.Fatalf("wheel range = %v", spec.WheelRangeDeg)
	}
	if spec.ControlPeriod != 20*time.Millisecond {
		t.Fatalf("control period = %v", spec.ControlPeriod)
	}
}

func TestBenchConfigValidation(t *testing.T) {
	good := BenchConfig{Scenario: scenario.Training(), Profile: subject(t, "T5")}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BenchConfig{
		{Profile: subject(t, "T5")},     // no scenario
		{Scenario: scenario.Training()}, // zero profile
		{Scenario: scenario.FollowVehicle(), Profile: subject(t, "T5"),
			FaultAssignments: []faultinject.Condition{faultinject.CondDelay5}}, // wrong count
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestIsGolden(t *testing.T) {
	scn := scenario.FollowVehicle()
	cfg := BenchConfig{Scenario: scn, Profile: subject(t, "T5")}
	if !cfg.IsGolden() {
		t.Fatal("nil assignments should be golden")
	}
	cfg.FaultAssignments = make([]faultinject.Condition, len(scn.POIs))
	if !cfg.IsGolden() {
		t.Fatal("all-NFI assignments should be golden")
	}
	cfg.FaultAssignments[2] = faultinject.CondLoss5
	if cfg.IsGolden() {
		t.Fatal("assignment with a fault should not be golden")
	}
}

func TestGoldenRunCompletes(t *testing.T) {
	out, err := Run(BenchConfig{Scenario: scenario.FollowVehicle(), Profile: subject(t, "T5"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("golden run did not complete: %+v", out)
	}
	if out.Log.RunType != "golden" {
		t.Fatalf("run type = %q", out.Log.RunType)
	}
	if out.Injected != 0 || len(out.Log.Faults) != 0 {
		t.Fatalf("golden run injected faults: %d / %d", out.Injected, len(out.Log.Faults))
	}
	if len(out.Log.Ego) == 0 || len(out.Log.Others) == 0 {
		t.Fatal("telemetry missing")
	}
	if out.ServerStats.FramesSent == 0 || out.ServerStats.ControlsApplied == 0 {
		t.Fatalf("bridge inactive: %+v", out.ServerStats)
	}
}

func TestAllSubjectsCompleteGoldenSlalom(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, prof := range driver.Subjects() {
		if prof.Name == "T7" {
			continue // excluded subject veers; not required to complete
		}
		out, err := Run(BenchConfig{Scenario: scenario.LaneChangeSlalom(), Profile: prof, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if !out.Completed {
			t.Errorf("%s did not complete the golden slalom (station %.0f)", prof.Name, out.FinalStation)
		}
	}
}

func TestFaultsInjectedAtPOIs(t *testing.T) {
	scn := scenario.FollowVehicle()
	assign := make([]faultinject.Condition, len(scn.POIs))
	assign[0] = faultinject.CondDelay25
	assign[2] = faultinject.CondLoss2
	out, err := Run(BenchConfig{Scenario: scn, Profile: subject(t, "T5"), Seed: 5, FaultAssignments: assign})
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected != 2 {
		t.Fatalf("injected = %d, want 2", out.Injected)
	}
	if out.Log.RunType != "faulty" {
		t.Fatalf("run type = %q", out.Log.RunType)
	}
	// The fault log records adds and deletes on both links.
	adds, dels := 0, 0
	for _, f := range out.Log.Faults {
		switch f.Action {
		case "add":
			adds++
		case "delete":
			dels++
		}
	}
	if adds != 4 || dels != 4 { // 2 faults × 2 links
		t.Fatalf("fault log adds=%d dels=%d, want 4/4", adds, dels)
	}
	// Condition spans cover the injections and are closed.
	if len(out.Log.ConditionSpans) != 2 {
		t.Fatalf("spans = %+v", out.Log.ConditionSpans)
	}
	for _, span := range out.Log.ConditionSpans {
		if span.To == 0 {
			t.Fatalf("span %+v not closed", span)
		}
	}
	labels := map[string]bool{}
	for _, span := range out.Log.ConditionSpans {
		labels[span.Label] = true
	}
	if !labels["25ms"] || !labels["2%"] {
		t.Fatalf("span labels = %v", labels)
	}
}

func TestEachPOIFiresOnce(t *testing.T) {
	scn := scenario.FollowVehicle()
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondDelay5
	}
	out, err := Run(BenchConfig{Scenario: scn, Profile: subject(t, "T6"), Seed: 3, FaultAssignments: assign})
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected > len(scn.POIs) {
		t.Fatalf("injected %d > %d POIs", out.Injected, len(scn.POIs))
	}
}

func TestRunDeterminism(t *testing.T) {
	scn := func() *scenario.Scenario { return scenario.LaneChangeSlalom() }
	assign := make([]faultinject.Condition, len(scn().POIs))
	assign[1] = faultinject.CondLoss5
	run := func() *Outcome {
		out, err := Run(BenchConfig{Scenario: scn(), Profile: subject(t, "T3"), Seed: 77, FaultAssignments: assign})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a.Log.Ego) != len(b.Log.Ego) {
		t.Fatalf("ego record counts differ: %d vs %d", len(a.Log.Ego), len(b.Log.Ego))
	}
	for i := range a.Log.Ego {
		if a.Log.Ego[i] != b.Log.Ego[i] {
			t.Fatalf("runs diverge at ego record %d", i)
		}
	}
	if a.EgoCollisions != b.EgoCollisions || a.FinalStation != b.FinalStation {
		t.Fatal("outcomes differ")
	}
}

func TestPersistentRule(t *testing.T) {
	rule := netem.Rule{Delay: 40 * time.Millisecond}
	out, err := Run(BenchConfig{
		Scenario:        scenario.Training(),
		Profile:         subject(t, "T5"),
		Seed:            5,
		PersistentRule:  &rule,
		PersistentLabel: "sweep-40ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Log.RunType != "faulty" {
		t.Fatalf("run type = %q", out.Log.RunType)
	}
	if got := out.Log.ConditionAt(30 * time.Second); got != "sweep-40ms" {
		t.Fatalf("condition at 30s = %q", got)
	}
	// Frame latency must reflect the rule throughout.
	if out.ClientStats.FramesReceived == 0 {
		t.Fatal("no frames under persistent rule")
	}
}

func TestDatagramTransportOption(t *testing.T) {
	topts := transport.Options{Name: "dgram", Reliable: false}
	out, err := Run(BenchConfig{
		Scenario:  scenario.Training(),
		Profile:   subject(t, "T5"),
		Seed:      5,
		Transport: &topts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("datagram training run did not complete")
	}
}

func TestT7BiasVisible(t *testing.T) {
	// T7's steering bias (left-hand-drive habituation) must show up as a
	// laterally offset drive compared to T5.
	mean := func(name string) float64 {
		out, err := Run(BenchConfig{Scenario: scenario.Training(), Profile: subject(t, name), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, e := range out.Log.Ego {
			sum += e.Lateral
		}
		return sum / float64(len(out.Log.Ego))
	}
	t5, t7 := mean("T5"), mean("T7")
	if t7 <= t5+0.02 {
		t.Fatalf("T7 mean lateral %v not visibly offset from T5's %v", t7, t5)
	}
}

// TestTimedOutRunDigest cuts a drive short: the outcome is not completed
// and the equivalence digest still spells the timeout out.
func TestTimedOutRunDigest(t *testing.T) {
	scn := scenario.FollowVehicle()
	scn.Timeout = 2 * time.Second
	out, err := Run(BenchConfig{Scenario: scn, Profile: subject(t, "T5"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("a 2 s drive of follow-vehicle reported completion")
	}
	if d := OutcomeDigest(out); !strings.Contains(d, "|completed=false|timedout=true|") {
		t.Fatalf("digest %q does not read completed=false|timedout=true", d)
	}
}

// faultlessLink is a link without a fault surface.
type faultlessLink struct{}

func (faultlessLink) Faults() *netem.Duplex { return nil }

// TestRunRejectsLinkWithoutFaultSurface: a faulty drive over a link that
// cannot be impaired must fail, not run as a fault-free drive that
// reports no failed injections.
func TestRunRejectsLinkWithoutFaultSurface(t *testing.T) {
	scn := scenario.FollowVehicle()
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondDelay50
	}
	out, err := Run(BenchConfig{
		Scenario:         scn,
		Profile:          subject(t, "T5"),
		Seed:             5,
		FaultAssignments: assign,
		NewStack: func(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*session.Stack, error) {
			st, err := session.NewStack(clock, w, ego, seed, topts)
			if err != nil {
				return nil, err
			}
			st.Link = faultlessLink{}
			return st, nil
		},
	})
	if err == nil {
		t.Fatalf("faulty drive without a fault surface ran: %+v", out)
	}
	if out != nil {
		t.Fatalf("failed drive returned an outcome: %+v", out)
	}
}
