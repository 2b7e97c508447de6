package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

func testWorld(t *testing.T) (*world.World, *world.Actor, *geom.Path) {
	t.Helper()
	ref := geom.MustPath([]geom.Vec2{geom.V(0, 0), geom.V(1000, 0)})
	m := &world.RoadMap{Name: "straight", Reference: ref, Lanes: []*world.Lane{
		{ID: "d1", Center: ref, Width: 3.5},
	}}
	w := world.New(m)
	ego, err := w.SpawnEgo(vehicle.Sedan(), geom.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	return w, ego, ref
}

func TestRecorderSamplesEgoAndOthers(t *testing.T) {
	w, ego, route := testWorld(t)
	rail, _ := world.NewRail(route, 50, []world.ProfilePoint{{Station: 0, Speed: 8}}, 2)
	w.SpawnScripted(world.KindCar, "lead", geom.V(4.7, 1.9), rail)

	log := &RunLog{Subject: "T1", Scenario: "follow", RunType: "golden"}
	rec := NewPassiveRecorder(w, ego, route, log)
	ego.Plant.Apply(vehicle.Control{Throttle: 0.5, Steer: 0.1})
	for i := 0; i < 50; i++ {
		w.Step(0.02)
		rec.Sample(w.SimTime())
	}
	if len(log.Ego) != 50 {
		t.Fatalf("ego records = %d", len(log.Ego))
	}
	if len(log.Others) != 50 {
		t.Fatalf("other records = %d", len(log.Others))
	}
	last := log.Ego[len(log.Ego)-1]
	if last.Throttle != 0.5 || last.Steer != 0.1 {
		t.Fatalf("controls not logged: %+v", last)
	}
	if last.Station <= 0 {
		t.Fatalf("station not logged: %+v", last)
	}
	lastOther := log.Others[len(log.Others)-1]
	if lastOther.Distance <= 0 || lastOther.Station < 49 {
		t.Fatalf("other record: %+v", lastOther)
	}
}

func TestRecorderCapturesCollisionWithLabel(t *testing.T) {
	w, ego, route := testWorld(t)
	rail, _ := world.NewRail(route, 10, nil, 1)
	w.SpawnScripted(world.KindParkedCar, "obstacle", geom.V(4.7, 1.9), rail)

	log := &RunLog{}
	rec := NewPassiveRecorder(w, ego, route, log)
	w.OnCollision = rec.RecordCollision
	rec.SetCondition(0, "50ms")
	ego.Plant.Apply(vehicle.Control{Throttle: 1})
	for i := 0; i < 200; i++ {
		w.Step(0.02)
		rec.Sample(w.SimTime())
	}
	if len(log.Collisions) != 1 {
		t.Fatalf("collisions = %d", len(log.Collisions))
	}
	if log.Collisions[0].Label != "50ms" {
		t.Fatalf("collision label = %q", log.Collisions[0].Label)
	}
	// Without an active condition, events carry the NFI label.
	rec.SetCondition(5*time.Second, "")
	rec.RecordCollision(world.CollisionEvent{})
	if log.Collisions[1].Label != "NFI" {
		t.Fatalf("label = %q", log.Collisions[1].Label)
	}
}

func TestConditionSpans(t *testing.T) {
	log := &RunLog{}
	w, ego, route := testWorld(t)
	rec := NewPassiveRecorder(w, ego, route, log)

	rec.SetCondition(10*time.Second, "5ms")
	rec.SetCondition(20*time.Second, "") // clear
	rec.SetCondition(30*time.Second, "5%")
	rec.SetCondition(40*time.Second, "2%") // direct switch

	if got := log.ConditionAt(5 * time.Second); got != "NFI" {
		t.Fatalf("at 5s: %q", got)
	}
	if got := log.ConditionAt(15 * time.Second); got != "5ms" {
		t.Fatalf("at 15s: %q", got)
	}
	if got := log.ConditionAt(25 * time.Second); got != "NFI" {
		t.Fatalf("at 25s: %q", got)
	}
	if got := log.ConditionAt(35 * time.Second); got != "5%" {
		t.Fatalf("at 35s: %q", got)
	}
	if got := log.ConditionAt(45 * time.Second); got != "2%" {
		t.Fatalf("at 45s: %q", got)
	}
}

func TestRunLogJSONRoundTrip(t *testing.T) {
	log := &RunLog{
		Subject: "T5", Scenario: "slalom", RunType: "faulty", Seed: 42,
		Ego:            []EgoRecord{{Time: time.Second, Frame: 50, X: 10, Speed: 5, Steer: -0.2}},
		Others:         []OtherRecord{{Actor: 2, Time: time.Second, Distance: 30}},
		Collisions:     []CollisionRecord{{Time: 2 * time.Second, Actor: 1, Other: 2, Label: "5%"}},
		LaneInvasions:  []LaneRecord{{Time: 3 * time.Second, Actor: 1, Kind: "crossed", LaneID: "d2"}},
		Faults:         []FaultRecord{{Time: time.Second, Link: "uplink", Action: "add", Desc: "delay 5ms", Label: "5ms"}},
		ConditionSpans: []ConditionSpan{{Label: "5ms", From: time.Second, To: 2 * time.Second}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, log) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, log)
	}
}

func TestSaveLoadJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs", "t1.json")
	log := &RunLog{Subject: "T1", RunType: "golden"}
	if err := SaveJSONFile(path, log); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Subject != "T1" {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := LoadJSONFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestExportCSV(t *testing.T) {
	dir := t.TempDir()
	log := &RunLog{
		Ego:           []EgoRecord{{Time: time.Second, Frame: 1, X: 1.5, Speed: 10}},
		Others:        []OtherRecord{{Actor: 2, Time: time.Second, Distance: 20}},
		Collisions:    []CollisionRecord{{Time: time.Second, Actor: 1, Other: 2, Label: "NFI"}},
		LaneInvasions: []LaneRecord{{Time: time.Second, Actor: 1, Kind: "crossed", LaneID: "d2"}},
		Faults:        []FaultRecord{{Time: time.Second, Link: "downlink", Action: "add", Desc: "delay 50ms", Label: "50ms"}},
	}
	if err := ExportCSV(dir, log); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ego.csv", "others.csv", "collisions.csv", "lane_invasions.csv", "faults.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := bytes.Count(data, []byte("\n"))
		if lines != 2 { // header + one row
			t.Fatalf("%s has %d lines, want 2", name, lines)
		}
	}
}

func TestRunLogDuration(t *testing.T) {
	log := &RunLog{}
	if log.Duration() != 0 {
		t.Fatal("empty log duration")
	}
	log.Ego = append(log.Ego, EgoRecord{Time: 90 * time.Second})
	if log.Duration() != 90*time.Second {
		t.Fatalf("duration = %v", log.Duration())
	}
}

func TestRecordFault(t *testing.T) {
	w, ego, route := testWorld(t)
	log := &RunLog{}
	rec := NewPassiveRecorder(w, ego, route, log)
	rec.RecordFault(time.Second, "downlink", "add", "delay 50ms", "50ms")
	rec.RecordFault(2*time.Second, "downlink", "delete", "none", "50ms")
	if len(log.Faults) != 2 {
		t.Fatalf("faults = %d", len(log.Faults))
	}
	if log.Faults[0].Desc != "delay 50ms" || log.Faults[1].Action != "delete" {
		t.Fatalf("fault log = %+v", log.Faults)
	}
}

func TestSaveJSONFileBadPath(t *testing.T) {
	if err := SaveJSONFile("/proc/definitely/not/writable/x.json", &RunLog{}); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestExportCSVBadDir(t *testing.T) {
	if err := ExportCSV("/proc/definitely/not/writable", &RunLog{}); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

func TestNilRouteRecorder(t *testing.T) {
	w, ego, _ := testWorld(t)
	log := &RunLog{}
	rec := NewPassiveRecorder(w, ego, nil, log)
	w.Step(0.02)
	rec.Sample(w.SimTime())
	if len(log.Ego) != 1 || log.Ego[0].Station != 0 {
		t.Fatalf("nil-route sample: %+v", log.Ego)
	}
}
