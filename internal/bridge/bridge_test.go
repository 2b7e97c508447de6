package bridge

import (
	"bytes"
	"math"
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/netem"
	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

func testSession(t *testing.T) (*simclock.Clock, *Session, *world.World, *world.Actor) {
	t.Helper()
	ref := geom.MustPath([]geom.Vec2{geom.V(0, 0), geom.V(2000, 0)})
	m := &world.RoadMap{Name: "straight", Reference: ref, Lanes: []*world.Lane{
		{ID: "d1", Center: ref, Width: 3.5},
	}}
	w := world.New(m)
	ego, err := w.SpawnEgo(vehicle.Sedan(), geom.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	sess, err := NewSessionWithTransport(clk, w, ego, 1234, transport.Options{Name: "bridge", Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	return clk, sess, w, ego
}

func TestControlCodecRoundTrip(t *testing.T) {
	cases := []vehicle.Control{
		{},
		{Throttle: 0.75, Steer: -0.3, Brake: 0.1},
		{Throttle: 1, Steer: 1, Brake: 1, Reverse: true, HandBrake: true},
		{Reverse: true},
	}
	for _, c := range cases {
		got, err := UnmarshalControl(MarshalControl(c))
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip: got %+v, want %+v", got, c)
		}
		var buf [ControlMsgLen]byte
		msg := AppendControlMsg(buf[:0], c)
		if want := envelope(MsgControl, MarshalControl(c)); !bytes.Equal(msg, want) {
			t.Fatalf("AppendControlMsg(%+v) = %x, want %x", c, msg, want)
		}
	}
}

func TestControlCodecRejectsBad(t *testing.T) {
	if _, err := UnmarshalControl([]byte{1, 2, 3}); err == nil {
		t.Fatal("short control accepted")
	}
	buf := MarshalControl(vehicle.Control{Throttle: math.NaN()})
	if _, err := UnmarshalControl(buf); err == nil {
		t.Fatal("NaN control accepted")
	}
}

func TestFramesFlowToClient(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	var frames int
	sess.Client.OnFrame = func(v sensors.WorldView, lat time.Duration) { frames++ }
	clk.Advance(time.Second)
	// ≈28 fps → ≈27 frames in the first second.
	if frames < 20 || frames > 30 {
		t.Fatalf("frames in 1s = %d, want ≈28", frames)
	}
	view, ok := sess.Client.Frame()
	if !ok {
		t.Fatal("no frame displayed")
	}
	if view.Ego.Kind != world.KindEgo {
		t.Fatalf("frame ego = %+v", view.Ego)
	}
}

func TestControlLoopDrivesVehicle(t *testing.T) {
	clk, sess, _, ego := testSession(t)
	sess.Server.Start()
	// Operator holds full throttle, re-sent every 50 ms like a real
	// station polling its pedals.
	var resend func(now time.Duration)
	resend = func(now time.Duration) {
		if err := sess.Client.SendControl(vehicle.Control{Throttle: 1}); err != nil {
			t.Errorf("send control: %v", err)
		}
		clk.Schedule(50*time.Millisecond, resend)
	}
	clk.Schedule(0, resend)
	clk.Advance(5 * time.Second)
	if speed := ego.Speed(); speed < 10 {
		t.Fatalf("ego speed after 5s remote throttle = %v", speed)
	}
	if got := sess.Server.Stats().ControlsApplied; got == 0 {
		t.Fatal("no controls applied")
	}
}

func TestFrameAgeGrowsUnderDelayFault(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	clk.Advance(500 * time.Millisecond)
	baseline := sess.Client.FrameAge()

	if err := sess.Conn.Links.ApplyBoth(netem.Rule{Delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	faulty := sess.Client.FrameAge()
	// The displayed frame is at least the injected one-way delay old
	// (baseline only reflects the frame-period sampling phase).
	if faulty < 50*time.Millisecond {
		t.Fatalf("frame age under 50ms delay = %v, baseline %v", faulty, baseline)
	}
	if lat := sess.Client.FrameLatency(); lat < 50*time.Millisecond {
		t.Fatalf("frame latency = %v, want ≥ 50ms", lat)
	}
}

func TestStaleFramesDiscarded(t *testing.T) {
	// Stale frames can only reach the client in datagram mode; the
	// reliable channel delivers in order by construction.
	ref := geom.MustPath([]geom.Vec2{geom.V(0, 0), geom.V(2000, 0)})
	m := &world.RoadMap{Name: "straight", Reference: ref, Lanes: []*world.Lane{
		{ID: "d1", Center: ref, Width: 3.5},
	}}
	w := world.New(m)
	ego, err := w.SpawnEgo(vehicle.Sedan(), geom.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	sess, err := NewSessionWithTransport(clk, w, ego, 1234, transport.Options{Name: "dgram", Reliable: false})
	if err != nil {
		t.Fatal(err)
	}
	// Single-fragment frames so wire-level duplication/reordering can
	// surface whole stale frames (multi-fragment messages are absorbed
	// by the reassembler).
	sess.Server.Camera().VideoFrameBytes = 0
	sess.Server.Start()
	// Strong jitter reorders whole frames on the wire.
	sess.Conn.Links.Down.AddRule(netem.Rule{Delay: 30 * time.Millisecond, Jitter: 28 * time.Millisecond, Duplicate: 0.3})
	var lastFrame uint64
	monotonic := true
	sess.Client.OnFrame = func(v sensors.WorldView, _ time.Duration) {
		if v.Frame <= lastFrame && lastFrame != 0 {
			monotonic = false
		}
		lastFrame = v.Frame
	}
	clk.Advance(5 * time.Second)
	if !monotonic {
		t.Fatal("displayed frames went backwards")
	}
	if sess.Client.Stats().FramesStale == 0 {
		t.Fatal("expected stale frames under duplication+jitter")
	}
}

func TestCollisionEventReachesClient(t *testing.T) {
	clk, sess, w, ego := testSession(t)
	rail, err := world.NewRail(w.Map.Reference, 15, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.SpawnScripted(world.KindParkedCar, "wall", geom.V(4.7, 1.9), rail); err != nil {
		t.Fatal(err)
	}
	sess.Server.Start()
	var collisions []CollisionWire
	sess.Client.OnCollision = func(ev CollisionWire) { collisions = append(collisions, ev) }
	ego.Plant.Apply(vehicle.Control{Throttle: 1})
	clk.Advance(5 * time.Second)
	if len(collisions) != 1 {
		t.Fatalf("collisions at client = %d, want 1", len(collisions))
	}
	if collisions[0].Actor != ego.ID && collisions[0].Other != ego.ID {
		t.Fatalf("collision actors: %+v", collisions[0])
	}
}

func TestLaneInvasionEventReachesClient(t *testing.T) {
	clk, sess, _, ego := testSession(t)
	sess.Server.Start()
	var events []LaneInvasionWire
	sess.Client.OnLaneInvasion = func(ev LaneInvasionWire) { events = append(events, ev) }
	ego.Plant.SetState(vehicle.State{Pose: geom.Pose{Yaw: 0.3}, Speed: 15})
	clk.Advance(3 * time.Second)
	if len(events) == 0 {
		t.Fatal("no lane-invasion events at client")
	}
	if events[0].Kind != "departed" && events[0].Kind != "crossed" {
		t.Fatalf("event kind = %q", events[0].Kind)
	}
}

func TestMetaPing(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	var replies []MetaReply
	sess.Client.OnMetaReply = func(r MetaReply) { replies = append(replies, r) }
	seq, err := sess.Client.SendMeta("ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	if len(replies) != 1 || replies[0].Seq != seq || !replies[0].OK {
		t.Fatalf("replies = %+v", replies)
	}
	if replies[0].Data["time_ns"] == "" {
		t.Fatal("ping reply missing time")
	}
}

func TestMetaSetWeatherAndFrameInterval(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	sess.Client.SendMeta("set_weather", map[string]string{"weather": "night"})
	sess.Client.SendMeta("set_frame_interval", map[string]string{"interval": "50ms"})
	clk.Advance(100 * time.Millisecond)
	if got := sess.Server.Weather(); got != "night" {
		t.Fatalf("weather = %q", got)
	}
	if got := sess.Server.FrameInterval(); got != 50*time.Millisecond {
		t.Fatalf("frame interval = %v", got)
	}
}

func TestMetaErrors(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	var replies []MetaReply
	sess.Client.OnMetaReply = func(r MetaReply) { replies = append(replies, r) }
	sess.Client.SendMeta("no_such_command", nil)
	sess.Client.SendMeta("set_weather", nil)
	sess.Client.SendMeta("set_frame_interval", map[string]string{"interval": "bogus"})
	clk.Advance(100 * time.Millisecond)
	if len(replies) != 3 {
		t.Fatalf("replies = %d", len(replies))
	}
	for i, r := range replies {
		if r.OK {
			t.Fatalf("reply %d unexpectedly OK: %+v", i, r)
		}
	}
}

func TestServerStopHaltsLoops(t *testing.T) {
	clk, sess, w, _ := testSession(t)
	sess.Server.Start()
	clk.Advance(500 * time.Millisecond)
	frameAtStop := w.Frame()
	sess.Server.Stop()
	clk.Advance(time.Second)
	if got := w.Frame(); got > frameAtStop+1 {
		t.Fatalf("world kept stepping after Stop: %d -> %d", frameAtStop, got)
	}
}

func TestServerOnTickRuns(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	ticks := 0
	sess.Server.OnTick = func(time.Duration) { ticks++ }
	sess.Server.Start()
	clk.Advance(time.Second)
	if ticks != 50 {
		t.Fatalf("ticks = %d, want 50", ticks)
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
	if _, err := NewClient(nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgFrame: "frame", MsgCollision: "collision", MsgLaneInvasion: "lane-invasion",
		MsgControl: "control", MsgMeta: "meta", MsgMetaReply: "meta-reply",
		MsgDeltaFrame: "delta-frame",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type should render")
	}
}

func TestFramesDroppedUnderBlackhole(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	sess.Conn.Links.Down.AddRule(netem.Rule{Loss: 1})
	clk.Advance(10 * time.Second)
	st := sess.Server.Stats()
	if st.FramesDropped == 0 {
		t.Fatalf("no frames dropped under blackhole: %+v", st)
	}
}

func TestNightWeatherReducesCameraRange(t *testing.T) {
	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	if got := sess.Server.Camera().Range; got != 150 {
		t.Fatalf("day range = %v", got)
	}
	sess.Client.SendMeta("set_weather", map[string]string{"weather": "clear-night"})
	clk.Advance(100 * time.Millisecond)
	if got := sess.Server.Camera().Range; got != 90 {
		t.Fatalf("night range = %v, want 90", got)
	}
	sess.Client.SendMeta("set_weather", map[string]string{"weather": "clear-day"})
	clk.Advance(100 * time.Millisecond)
	if got := sess.Server.Camera().Range; got != 150 {
		t.Fatalf("back-to-day range = %v", got)
	}
}

// TestUnknownMessageKindsRejected pins the exhaustive-envelope contract
// on both bridge endpoints: a message kind the peer must never receive
// — or one this build does not know at all — is counted as a protocol
// error, not silently dropped. Protocol drift (a new kind added on one
// side only) then shows up in stats instead of vanishing.
func TestUnknownMessageKindsRejected(t *testing.T) {
	_, sess, _, _ := testSession(t)

	// Server side: client→server kinds are fine, server→client kinds and
	// unknown kinds are protocol errors.
	sess.Server.handleMessage(envelope(MsgFrame, []byte("{}")))
	sess.Server.handleMessage(envelope(MsgMetaReply, []byte("{}")))
	sess.Server.handleMessage(envelope(MsgType(0xEE), nil))
	sess.Server.handleMessage(nil) // malformed: empty payload
	if got := sess.Server.Stats().ProtocolErrors; got != 4 {
		t.Fatalf("server ProtocolErrors = %d, want 4", got)
	}

	// Client side: mirror image.
	sess.Client.handleMessage(envelope(MsgControl, MarshalControl(vehicle.Control{})), 0)
	sess.Client.handleMessage(envelope(MsgMeta, []byte("{}")), 0)
	sess.Client.handleMessage(envelope(MsgType(0xEE), nil), 0)
	sess.Client.handleMessage(nil, 0)
	if got := sess.Client.Stats().ProtocolErrors; got != 4 {
		t.Fatalf("client ProtocolErrors = %d, want 4", got)
	}

	// A malformed body on a known kind counts too.
	sess.Server.handleMessage(envelope(MsgControl, []byte("bogus")))
	if got := sess.Server.Stats().ProtocolErrors; got != 5 {
		t.Fatalf("server ProtocolErrors after bad control = %d, want 5", got)
	}

	// Legitimate traffic does not move the counter.
	sess.Client.SendControl(vehicle.Control{Throttle: 0.5})
	if got := sess.Client.Stats().ProtocolErrors; got != 4 {
		t.Fatalf("client ProtocolErrors after valid send = %d, want 4", got)
	}
}
