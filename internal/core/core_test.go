package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/trace"
)

func subject(t *testing.T, name string) driver.Profile {
	t.Helper()
	p, ok := driver.SubjectByName(name)
	if !ok {
		t.Fatalf("unknown subject %s", name)
	}
	return p
}

func TestGoldenPlan(t *testing.T) {
	scn := scenario.FollowVehicle()
	plan := GoldenPlan(scn)
	if len(plan) != len(scn.POIs) {
		t.Fatalf("plan length = %d", len(plan))
	}
	for _, c := range plan {
		if c != faultinject.CondNFI {
			t.Fatalf("plan contains %v", c)
		}
	}
}

func TestRunOneGolden(t *testing.T) {
	res, err := RunOne(RunSpec{Scenario: scenario.FollowVehicle(), Profile: subject(t, "T5"), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analysis
	if a.Subject != "T5" || a.RunType != "golden" {
		t.Fatalf("analysis header: %+v", a)
	}
	nfi, ok := a.TTCByCondition["NFI"]
	if !ok || !nfi.Valid || nfi.N == 0 {
		t.Fatalf("NFI TTC missing: %+v", a.TTCByCondition)
	}
	if nfi.Min <= 0 || nfi.Min > nfi.Avg || nfi.Avg > nfi.Max {
		t.Fatalf("TTC ordering: %+v", nfi)
	}
	if a.SRRWholeRun < 0 || a.SRRWholeRun > 60 {
		t.Fatalf("SRR = %v implausible", a.SRRWholeRun)
	}
	if !a.TaskTimeOK || a.TaskTime <= 0 {
		t.Fatalf("task time missing")
	}
	if a.SpeedStats.Max <= 0 || a.MeanHeadway <= 0 {
		t.Fatalf("kinematics missing: %+v", a.SpeedStats)
	}
	if len(a.SteerFiltered) != len(res.Outcome.Log.Ego) {
		t.Fatal("steering profile length mismatch")
	}
	if a.Duration != res.Outcome.Log.Duration() || a.Duration <= 0 {
		t.Fatalf("analysis duration %v, log duration %v", a.Duration, res.Outcome.Log.Duration())
	}
}

// TestRunOneLogSink: the sink sees the full log while it is valid, and
// its error fails the drive.
func TestRunOneLogSink(t *testing.T) {
	scn := scenario.LaneChangeSlalom()
	var seen string
	spec := RunSpec{Scenario: scn, Profile: subject(t, "T5"), Seed: 2, Scratch: session.NewRunScratch(),
		LogSink: func(l *trace.RunLog) error { seen = trace.Fingerprint(l); return nil }}
	res, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if seen == "" || seen != res.Outcome.Fingerprint {
		t.Fatalf("sink saw a log fingerprinting to %q, the drive's is %q", seen, res.Outcome.Fingerprint)
	}
	boom := errors.New("disk full")
	spec.Scenario = scenario.LaneChangeSlalom()
	spec.LogSink = func(*trace.RunLog) error { return boom }
	if _, err := RunOne(spec); !errors.Is(err, boom) {
		t.Fatalf("RunOne with a failing sink returned %v, want %v", err, boom)
	}
}

func TestRunOneFaultyPerCondition(t *testing.T) {
	scn := scenario.FollowVehicle()
	faults := make([]faultinject.Condition, len(scn.POIs))
	for i := range faults {
		faults[i] = faultinject.CondDelay25
	}
	res, err := RunOne(RunSpec{Scenario: scn, Profile: subject(t, "T5"), Seed: 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analysis
	if _, ok := a.SRRByCondition["25ms"]; !ok {
		t.Fatalf("25ms SRR missing: %v", a.SRRByCondition)
	}
	if a.SRRExposure["25ms"] <= 0 {
		t.Fatalf("25ms exposure missing: %v", a.SRRExposure)
	}
	// No other fault label should appear.
	for label := range a.SRRByCondition {
		if label != "NFI" && label != "25ms" {
			t.Fatalf("unexpected label %q", label)
		}
	}
}

func TestAnalyzeRunSyntheticTTC(t *testing.T) {
	// Hand-built log: ego closing on a lead at constant speeds.
	log := &trace.RunLog{Subject: "X", Scenario: "synthetic", RunType: "golden"}
	tick := 20 * time.Millisecond
	for i := 0; i < 500; i++ {
		now := time.Duration(i) * tick
		egoStation := 20.0 * now.Seconds() // 20 m/s
		leadStation := 80 + 10*now.Seconds()
		log.Ego = append(log.Ego, trace.EgoRecord{
			Time: now, Station: egoStation, Speed: 20, Steer: 0,
		})
		log.Others = append(log.Others, trace.OtherRecord{
			Actor: 2, Time: now, Station: leadStation, Lateral: 0, Speed: 10,
		})
	}
	a := AnalyzeRun(log, nil)
	nfi, ok := a.TTCByCondition["NFI"]
	if !ok {
		t.Fatal("no NFI TTC")
	}
	// Initial gap 80 m closing at 10 m/s → first gated TTC = 8 s,
	// decreasing to near 0 before the ego passes the lead.
	if math.Abs(nfi.Max-8) > 0.2 {
		t.Fatalf("max TTC = %v, want ≈8", nfi.Max)
	}
	if nfi.Min > 1 {
		t.Fatalf("min TTC = %v, want small", nfi.Min)
	}
	if nfi.Violations == 0 {
		t.Fatal("violations below 6 s threshold expected")
	}
}

func TestAnalyzeRunIgnoresOffCorridorActors(t *testing.T) {
	log := &trace.RunLog{}
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * 20 * time.Millisecond
		log.Ego = append(log.Ego, trace.EgoRecord{Time: now, Station: float64(i), Speed: 10})
		// A cyclist on the shoulder: lateral -2.75, never a TTC lead.
		log.Others = append(log.Others, trace.OtherRecord{
			Actor: 3, Time: now, Station: float64(i) + 30, Lateral: -2.75, Speed: 4,
		})
	}
	a := AnalyzeRun(log, nil)
	if _, ok := a.TTCByCondition["NFI"]; ok {
		t.Fatalf("shoulder cyclist treated as TTC lead: %+v", a.TTCByCondition)
	}
}

func TestAnalyzeRunPerConditionCollisions(t *testing.T) {
	log := &trace.RunLog{
		Collisions: []trace.CollisionRecord{
			{Time: time.Second, Actor: 1, Other: 2, Label: "50ms"},
			{Time: 2 * time.Second, Actor: 1, Other: 2, Label: "5%"},
			{Time: 3 * time.Second, Actor: 1, Other: 2, Label: "5%"},
		},
	}
	a := AnalyzeRun(log, nil)
	if a.EgoCollisions != 3 {
		t.Fatalf("collisions = %d", a.EgoCollisions)
	}
	if a.CollisionsByCondition["50ms"] != 1 || a.CollisionsByCondition["5%"] != 2 {
		t.Fatalf("by condition: %v", a.CollisionsByCondition)
	}
}

func TestConditionLabels(t *testing.T) {
	labels := ConditionLabels()
	want := []string{"NFI", "5ms", "25ms", "50ms", "2%", "5%"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v", labels)
		}
	}
}

func TestSRRSegmentationNoCrossBoundaryReversals(t *testing.T) {
	// A log whose steering is constant inside each condition span but
	// jumps at the boundary: per-condition SRR must be 0 everywhere
	// (the jump is not a reversal within either span).
	log := &trace.RunLog{
		ConditionSpans: []trace.ConditionSpan{
			{Label: "5ms", From: 10 * time.Second, To: 20 * time.Second},
		},
	}
	tick := 20 * time.Millisecond
	for i := 0; i < 1500; i++ {
		now := time.Duration(i) * tick
		steer := 0.0
		if now >= 10*time.Second && now < 20*time.Second {
			steer = 0.05
		}
		log.Ego = append(log.Ego, trace.EgoRecord{Time: now, Steer: steer})
	}
	a := AnalyzeRun(log, nil)
	for label, rate := range a.SRRByCondition {
		if rate != 0 {
			t.Fatalf("SRR[%s] = %v, want 0", label, rate)
		}
	}
}
