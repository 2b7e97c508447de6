package sensors

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

func testWorld(t *testing.T) (*world.World, *world.Actor) {
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
	return w, ego
}

func spawnCarAt(t *testing.T, w *world.World, station float64) *world.Actor {
	t.Helper()
	rail, err := world.NewRail(w.Map.Reference, station, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.SpawnScripted(world.KindCar, "car", geom.V(4.7, 1.9), rail)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCameraCapturesEgoAndVisible(t *testing.T) {
	w, ego := testWorld(t)
	near := spawnCarAt(t, w, 50)
	spawnCarAt(t, w, 500) // beyond range
	cam := NewCamera(w, ego)

	view := cam.Capture()
	if view.Ego.ID != ego.ID || view.Ego.Kind != world.KindEgo {
		t.Fatalf("ego view = %+v", view.Ego)
	}
	if len(view.Others) != 1 || view.Others[0].ID != near.ID {
		t.Fatalf("visible actors = %+v, want only the near car", view.Others)
	}
}

func TestCameraRearCull(t *testing.T) {
	w, ego := testWorld(t)
	ego.Plant.SetState(vehicle.State{Pose: geom.Pose{Pos: geom.V(100, 0)}})
	spawnCarAt(t, w, 10) // 90 m behind: beyond mirror range
	mirror := spawnCarAt(t, w, 80)
	cam := NewCamera(w, ego)
	view := cam.Capture()
	if len(view.Others) != 1 || view.Others[0].ID != mirror.ID {
		t.Fatalf("visible = %+v, want only the mirror-range car", view.Others)
	}
}

func TestCameraFrameMetadata(t *testing.T) {
	w, ego := testWorld(t)
	cam := NewCamera(w, ego)
	for i := 0; i < 10; i++ {
		w.Step(0.02)
	}
	view := cam.Capture()
	if view.Frame != 10 {
		t.Fatalf("frame = %d, want 10", view.Frame)
	}
	if view.SimTime != 200*time.Millisecond {
		t.Fatalf("sim time = %v", view.SimTime)
	}
	if got := view.Age(300 * time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("age = %v", got)
	}
}

func TestCameraSeesEgoSteer(t *testing.T) {
	w, ego := testWorld(t)
	ego.Plant.Apply(vehicle.Control{Steer: -0.4})
	cam := NewCamera(w, ego)
	if got := cam.Capture().Ego.Steer; got != -0.4 {
		t.Fatalf("ego steer in frame = %v, want -0.4", got)
	}
}

func TestWorldViewCodecRoundTrip(t *testing.T) {
	v := WorldView{
		Frame:   77,
		SimTime: 1234 * time.Millisecond,
		Ego: ActorView{
			ID: 1, Kind: world.KindEgo,
			Pose:  geom.Pose{Pos: geom.V(12.5, -3.25), Yaw: 0.7},
			Speed: 13.9, Steer: -0.25, Extent: geom.V(4.7, 1.9),
		},
		Others: []ActorView{
			{ID: 2, Kind: world.KindCar, Pose: geom.Pose{Pos: geom.V(60, 0)}, Speed: 10, Extent: geom.V(4.7, 1.9)},
			{ID: 5, Kind: world.KindCyclist, Pose: geom.Pose{Pos: geom.V(80, -2.75), Yaw: 0.01}, Speed: 4, Extent: geom.V(1.8, 0.6)},
		},
	}
	got, err := UnmarshalWorldView(MarshalWorldView(v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestWorldViewCodecNoOthers(t *testing.T) {
	v := WorldView{Frame: 1, Ego: ActorView{ID: 1, Kind: world.KindEgo}}
	got, err := UnmarshalWorldView(MarshalWorldView(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Others) != 0 {
		t.Fatalf("others = %+v", got.Others)
	}
}

func TestWorldViewCodecProperty(t *testing.T) {
	f := func(frame uint64, simTime int64, n uint8, x, y, yaw, speed float64) bool {
		for _, v := range []float64{x, y, yaw, speed} {
			if math.IsNaN(v) {
				return true // NaN != NaN breaks DeepEqual but is not a codec bug
			}
		}
		v := WorldView{
			Frame:   frame,
			SimTime: time.Duration(simTime),
			Ego:     ActorView{ID: 1, Kind: world.KindEgo, Pose: geom.Pose{Pos: geom.V(x, y), Yaw: yaw}, Speed: speed},
		}
		for i := 0; i < int(n%8); i++ {
			v.Others = append(v.Others, ActorView{
				ID: world.ActorID(i + 2), Kind: world.KindCar,
				Pose: geom.Pose{Pos: geom.V(x+float64(i), y)}, Speed: speed / 2,
			})
		}
		got, err := UnmarshalWorldView(MarshalWorldView(v))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalWorldViewAppendMatchesMarshal: FrameBuffer.Keyframe is
// the kind byte followed by exactly MarshalWorldView's bytes, including
// after longer frames left their records in the reused buffer.
func TestMarshalWorldViewAppendMatchesMarshal(t *testing.T) {
	views := []WorldView{
		{Frame: 1, Ego: ActorView{ID: 1, Kind: world.KindEgo}},
		{
			Frame: 9, SimTime: 333 * time.Millisecond, VideoFill: 96,
			Ego: ActorView{ID: 1, Kind: world.KindEgo, Pose: geom.Pose{Pos: geom.V(3, -4), Yaw: 1.2}, Speed: 8},
			Others: []ActorView{
				{ID: 2, Kind: world.KindCar, Pose: geom.Pose{Pos: geom.V(60, 0)}, Speed: 10},
				{ID: 3, Kind: world.KindCyclist, Extent: geom.V(1.8, 0.6)},
			},
		},
		{Frame: 2, Ego: ActorView{ID: 1}, VideoFill: -5}, // negative fill clamps to 0
		{Frame: 3, Ego: ActorView{ID: 1, Speed: 3}, VideoFill: 200},
	}
	var frames FrameBuffer
	for _, v := range views {
		want := MarshalWorldView(v)
		head, fill := frames.Keyframe(0xAA, v)
		got := append(bytes.Clone(head), make([]byte, fill)...)
		if got[0] != 0xAA {
			t.Fatalf("kind byte = %#x, want 0xaa", got[0])
		}
		if !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("keyframe bytes != marshal bytes for %+v", v)
		}
		rt, err := UnmarshalWorldView(got[1:])
		if err != nil {
			t.Fatal(err)
		}
		if rt.Frame != v.Frame {
			t.Fatalf("round trip frame = %d, want %d", rt.Frame, v.Frame)
		}
	}
}

func TestCaptureIntoMatchesCaptureAndReusesBuffers(t *testing.T) {
	w, ego := testWorld(t)
	spawnCarAt(t, w, 40)
	spawnCarAt(t, w, 90)
	spawnCarAt(t, w, 700) // beyond range
	cam := NewCamera(w, ego)

	var reused WorldView
	ego.Plant.Apply(vehicle.Control{Throttle: 0.5})
	for i := 0; i < 50; i++ {
		w.Step(0.02)
		cam.CaptureInto(&reused)
		if fresh := cam.Capture(); !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("step %d: CaptureInto %+v != Capture %+v", i, reused, fresh)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	if _, err := UnmarshalWorldView(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := UnmarshalWorldView(make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
	// Valid view truncated mid-actor.
	v := WorldView{Ego: ActorView{ID: 1}, Others: []ActorView{{ID: 2}}}
	buf := MarshalWorldView(v)
	if _, err := UnmarshalWorldView(buf[:len(buf)-5]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	// Count field inconsistent with length.
	buf2 := MarshalWorldView(WorldView{Ego: ActorView{ID: 1}})
	buf2[17] = 5
	if _, err := UnmarshalWorldView(buf2); err == nil {
		t.Fatal("inconsistent count accepted")
	}
}

func TestCollisionSensorFiltersActor(t *testing.T) {
	w, ego := testWorld(t)
	spawnCarAt(t, w, 8) // just ahead; ego will ram it
	sensor := NewCollisionSensor(w, ego.ID)

	ego.Plant.Apply(vehicle.Control{Throttle: 1})
	for i := 0; i < 50*5; i++ {
		w.Step(0.02)
	}
	events := sensor.Drain()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if len(sensor.Drain()) != 0 {
		t.Fatal("Drain did not clear")
	}
}

func TestCollisionSensorChains(t *testing.T) {
	w, ego := testWorld(t)
	spawnCarAt(t, w, 8)
	var direct int
	w.OnCollision = func(world.CollisionEvent) { direct++ }
	sensor := NewCollisionSensor(w, ego.ID)

	ego.Plant.Apply(vehicle.Control{Throttle: 1})
	for i := 0; i < 50*5; i++ {
		w.Step(0.02)
	}
	if direct != 1 || len(sensor.Drain()) != 1 {
		t.Fatalf("chained callbacks: direct=%d", direct)
	}
}

func TestLaneInvasionSensor(t *testing.T) {
	w, ego := testWorld(t)
	sensor := NewLaneInvasionSensor(w, ego.ID)
	ego.Plant.SetState(vehicle.State{Pose: geom.Pose{Yaw: 0.3}, Speed: 15})
	for i := 0; i < 50*3; i++ {
		w.Step(0.02)
	}
	events := sensor.Drain()
	if len(events) == 0 {
		t.Fatal("no lane events for departing ego")
	}
	if events[0].Actor != ego.ID {
		t.Fatalf("event actor = %v", events[0].Actor)
	}
}
