package bridge

import (
	"encoding/binary"
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/netem"
	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// cruise is a steady partial-throttle command: the ego moves every tick,
// so consecutive views differ and diffs carry real field updates.
func cruise() vehicle.Control { return vehicle.Control{Throttle: 0.4} }

// datagramSession is testSession over an unreliable transport, for tests
// that need real wire-level loss to reach the bridge endpoints.
func datagramSession(t *testing.T) (*simclock.Clock, *Session, *world.World, *world.Actor) {
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
	sess, err := NewSessionWithTransport(clk, w, ego, 4321, transport.Options{Name: "dgram", Reliable: false})
	if err != nil {
		t.Fatal(err)
	}
	return clk, sess, w, ego
}

// TestMetaCommandMatrix walks the whole handleMeta surface through the
// wire — request in, reply out, server state checked — so a new command
// (or a regression in an old one) cannot hide behind the happy-path
// tests above.
func TestMetaCommandMatrix(t *testing.T) {
	cases := []struct {
		name   string
		cmd    string
		args   map[string]string
		wantOK bool
		check  func(t *testing.T, s *Server, r MetaReply)
	}{
		{
			name: "ping", cmd: "ping", wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if r.Data["time_ns"] == "" {
					t.Fatal("ping reply missing time_ns")
				}
			},
		},
		{
			name: "set_weather night shrinks camera range", cmd: "set_weather",
			args: map[string]string{"weather": "rain-night"}, wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if s.Weather() != "rain-night" || s.Camera().Range != 90 {
					t.Fatalf("weather=%q range=%v, want rain-night/90", s.Weather(), s.Camera().Range)
				}
			},
		},
		{
			name: "set_weather day restores camera range", cmd: "set_weather",
			args: map[string]string{"weather": "clear-day"}, wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if s.Weather() != "clear-day" || s.Camera().Range != 150 {
					t.Fatalf("weather=%q range=%v, want clear-day/150", s.Weather(), s.Camera().Range)
				}
			},
		},
		{
			name: "set_weather missing arg", cmd: "set_weather", wantOK: false,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if s.Weather() != "clear-day" {
					t.Fatalf("rejected set_weather still changed state: %q", s.Weather())
				}
			},
		},
		{
			name: "set_frame_interval accepts valid", cmd: "set_frame_interval",
			args: map[string]string{"interval": "48ms"}, wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if got := s.FrameInterval(); got != 48*time.Millisecond {
					t.Fatalf("frame interval = %v, want 48ms", got)
				}
			},
		},
		{
			name: "set_frame_interval rejects unparsable", cmd: "set_frame_interval",
			args: map[string]string{"interval": "fast"}, wantOK: false,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if got := s.FrameInterval(); got != 48*time.Millisecond {
					t.Fatalf("rejected interval still applied: %v", got)
				}
			},
		},
		{
			// Regression: zero and negative intervals parse fine, so the
			// meta path must hit the same guard SetFrameInterval uses —
			// before the fix it wrote the value straight through.
			name: "set_frame_interval rejects zero", cmd: "set_frame_interval",
			args: map[string]string{"interval": "0s"}, wantOK: false,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if got := s.FrameInterval(); got != 48*time.Millisecond {
					t.Fatalf("zero interval applied: %v", got)
				}
			},
		},
		{
			name: "set_frame_interval rejects negative", cmd: "set_frame_interval",
			args: map[string]string{"interval": "-20ms"}, wantOK: false,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if got := s.FrameInterval(); got != 48*time.Millisecond {
					t.Fatalf("negative interval applied: %v", got)
				}
			},
		},
		{
			name: "request_keyframe forces the next frame full", cmd: "request_keyframe",
			wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if !s.forceKey {
					t.Fatal("request_keyframe did not arm forceKey")
				}
			},
		},
		{
			name: "get_stats surfaces the loss counters", cmd: "get_stats", wantOK: true,
			check: func(t *testing.T, s *Server, r MetaReply) {
				for _, k := range []string{
					"frames_sent", "frames_dropped", "deltas_sent",
					"events_sent", "events_dropped", "weather",
				} {
					if _, ok := r.Data[k]; !ok {
						t.Errorf("get_stats missing %q: %+v", k, r.Data)
					}
				}
			},
		},
		{
			name: "unknown command errors", cmd: "warp_reality", wantOK: false,
			check: func(t *testing.T, s *Server, r MetaReply) {
				if r.Error == "" {
					t.Fatal("unknown command reply has no error text")
				}
			},
		},
	}

	clk, sess, _, _ := testSession(t)
	sess.Server.Start()
	var last MetaReply
	sess.Client.OnMetaReply = func(r MetaReply) { last = r }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := sess.Client.SendMeta(tc.cmd, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			clk.Advance(100 * time.Millisecond)
			if last.Seq != seq {
				t.Fatalf("no reply for seq %d (last %d)", seq, last.Seq)
			}
			if last.OK != tc.wantOK {
				t.Fatalf("reply OK = %v, want %v (%+v)", last.OK, tc.wantOK, last)
			}
			tc.check(t, sess.Server, last)
		})
	}
	if got := sess.Server.Stats().MetasHandled; got != uint64(len(cases)) {
		t.Fatalf("MetasHandled = %d, want %d", got, len(cases))
	}
}

// TestServerStopIdempotent pins Stop's contract with timers still armed:
// calling it repeatedly mid-flight halts the loops exactly once, and a
// later Start revives them.
func TestServerStopIdempotent(t *testing.T) {
	clk, sess, w, _ := testSession(t)
	sess.Server.Start()
	// Stop between ticks: both owned timers are armed and will still
	// fire — the stopped flag must swallow those callbacks.
	clk.Advance(PhysicsTick/2 + 250*time.Millisecond)
	frameAtStop := w.Frame()
	sess.Server.Stop()
	sess.Server.Stop()
	clk.Advance(time.Second)
	sess.Server.Stop()
	if got := w.Frame(); got > frameAtStop+1 {
		t.Fatalf("world kept stepping after repeated Stop: %d -> %d", frameAtStop, got)
	}
	framesSent := sess.Server.Stats().FramesSent
	clk.Advance(time.Second)
	if got := sess.Server.Stats().FramesSent; got != framesSent {
		t.Fatalf("camera kept sending after Stop: %d -> %d", framesSent, got)
	}
	// Start after Stop re-arms the loops.
	sess.Server.Start()
	clk.Advance(time.Second)
	if got := w.Frame(); got <= frameAtStop+1 {
		t.Fatal("Start after Stop did not revive the physics loop")
	}
	if got := sess.Server.Stats().FramesSent; got <= framesSent {
		t.Fatal("Start after Stop did not revive the camera loop")
	}
}

// TestEventsDroppedCounted pins satellite #1: a sensor event that cannot
// be delivered (send window full under a blackhole) increments
// EventsDropped — in stats, telemetry, and the get_stats reply — instead
// of vanishing.
func TestEventsDroppedCounted(t *testing.T) {
	clk, sess, _, ego := testSession(t)
	reg := telemetry.NewRegistry()
	ins := NewServerInstruments(reg)
	sess.Server.SetInstruments(ins)
	sess.Server.Start()
	// Blackhole the downlink so the reliable window fills, then swerve
	// hard: lane invasions pile up with nowhere to go.
	sess.Conn.Links.Down.AddRule(netem.Rule{Loss: 1})
	// Weave across the lane boundary so invasions keep firing while the
	// send window has nowhere to drain.
	weave := 0.3
	var swerve func(now time.Duration)
	swerve = func(now time.Duration) {
		ego.Plant.SetState(vehicle.State{Pose: geom.Pose{Pos: geom.V(100, 0), Yaw: weave}, Speed: 15})
		weave = -weave
		clk.Schedule(500*time.Millisecond, swerve)
	}
	clk.Schedule(0, swerve)
	clk.Advance(10 * time.Second)

	st := sess.Server.Stats()
	if st.EventsDropped == 0 {
		t.Fatalf("no events dropped under blackhole: %+v", st)
	}
	if got := ins.EventsDropped.Value(); got != st.EventsDropped {
		t.Fatalf("telemetry events_dropped = %d, stats = %d", got, st.EventsDropped)
	}

	// The counter also rides the get_stats meta-reply once the link heals.
	// Stop the loops first so the retransmit backlog can drain instead of
	// racing fresh camera frames for the send window.
	sess.Server.Stop()
	sess.Conn.Links.Down.DeleteRule()
	// Every queued fragment was lost and recovers one RTO at a time, so
	// the drain takes minutes of (cheap) simulated time.
	clk.Advance(3 * time.Minute)
	var last MetaReply
	sess.Client.OnMetaReply = func(r MetaReply) { last = r }
	if _, err := sess.Client.SendMeta("get_stats", nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if last.Data["events_dropped"] == "" || last.Data["events_dropped"] == "0" {
		t.Fatalf("get_stats events_dropped = %q, want > 0", last.Data["events_dropped"])
	}
}

// --- Delta streaming over the bridge ------------------------------------

// TestDeltaStreamingReliable drives a full session with diff streaming
// on: the station reconstructs every frame, deltas dominate the wire,
// and — the acceptance bound — a steady-state delta frame is smaller
// than the full frame it replaces.
func TestDeltaStreamingReliable(t *testing.T) {
	fullBytes := wireBytesOverAdvance(t, false)
	deltaBytes := wireBytesOverAdvance(t, true)
	if deltaBytes >= fullBytes {
		t.Fatalf("delta streaming moved %d payload bytes, full-frame %d — no win", deltaBytes, fullBytes)
	}
}

// wireBytesOverAdvance runs 10 simulated seconds with or without delta
// streaming and returns total frame payload bytes on the wire, checking
// the mode-specific invariants along the way.
func wireBytesOverAdvance(t *testing.T, delta bool) uint64 {
	t.Helper()
	clk, sess, _, ego := testSession(t)
	reg := telemetry.NewRegistry()
	ins := NewServerInstruments(reg)
	sess.Server.SetInstruments(ins)
	if delta {
		sess.Server.SetDeltaStreaming(true, 0)
	}
	sess.Server.Start()
	ego.Plant.Apply(cruise())
	clk.Advance(10 * time.Second)

	sst, cst := sess.Server.Stats(), sess.Client.Stats()
	if cst.FramesReceived < 200 {
		t.Fatalf("frames received = %d, want ≥200 over 10s", cst.FramesReceived)
	}
	if delta {
		if sst.DeltasSent == 0 || cst.DeltasApplied == 0 {
			t.Fatalf("delta mode moved no diffs: server %+v client %+v", sst, cst)
		}
		if sst.DeltasSent >= sst.FramesSent {
			t.Fatalf("every frame a delta — keyframe cadence broken: %+v", sst)
		}
		if cst.DeltaResyncs != 0 {
			t.Fatalf("resyncs on a reliable link: %d", cst.DeltaResyncs)
		}
		if got := ins.DeltasSent.Value(); got != sst.DeltasSent {
			t.Fatalf("telemetry deltas = %d, stats = %d", got, sst.DeltasSent)
		}
	} else {
		if sst.DeltasSent != 0 || cst.DeltasApplied != 0 {
			t.Fatalf("deltas moved with streaming off: server %+v client %+v", sst, cst)
		}
	}
	return ins.PayloadBytes.Value()
}

// TestDeltaStreamViewsMatchFullStream pins reconstruction equivalence at
// the bridge level: the same world driven through delta and full-frame
// sessions yields byte-identical displayed views at every frame number.
func TestDeltaStreamViewsMatchFullStream(t *testing.T) {
	capture := func(delta bool) map[uint64][]byte {
		clk, sess, _, ego := testSession(t)
		if delta {
			sess.Server.SetDeltaStreaming(true, 7) // short cadence: exercise many chain restarts
		}
		views := make(map[uint64][]byte)
		sess.Client.OnFrame = func(v sensors.WorldView, _ time.Duration) {
			views[v.Frame] = sensors.MarshalWorldView(v)
		}
		sess.Server.Start()
		ego.Plant.Apply(cruise())
		clk.Advance(5 * time.Second)
		return views
	}
	full := capture(false)
	diff := capture(true)
	if len(diff) == 0 || len(diff) != len(full) {
		t.Fatalf("frame counts differ: full %d, delta %d", len(full), len(diff))
	}
	for frame, want := range full {
		got, ok := diff[frame]
		if !ok {
			t.Fatalf("frame %d missing from delta stream", frame)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d reconstruction differs from full-frame stream", frame)
		}
	}
}

// TestDeltaResyncOverLossyDatagram breaks the diff chain with real
// packet loss: the station must detect the stale base, request a
// keyframe, and keep displaying fresh frames afterwards.
func TestDeltaResyncOverLossyDatagram(t *testing.T) {
	clk, sess2, _, ego := datagramSession(t)
	sess2.Server.Camera().VideoFrameBytes = 0 // single-fragment frames: loss drops whole frames
	sess2.Server.Camera().VideoDeltaBytes = 0
	sess2.Server.SetDeltaStreaming(true, 50) // long cadence: recovery must come from resync requests
	sess2.Server.Start()
	ego.Plant.Apply(cruise())
	clk.Advance(2 * time.Second)
	sess2.Conn.Links.Down.AddRule(netem.Rule{Loss: 0.3})
	clk.Advance(6 * time.Second)
	sess2.Conn.Links.Down.DeleteRule()
	atClear := sess2.Client.Stats().FramesReceived
	clk.Advance(2 * time.Second)

	cst := sess2.Client.Stats()
	if cst.DeltaResyncs == 0 {
		t.Fatalf("no resyncs under 30%% loss: %+v", cst)
	}
	if cst.FramesReceived <= atClear+10 {
		t.Fatalf("stream did not recover after loss cleared: %d -> %d", atClear, cst.FramesReceived)
	}
}

// TestDeltaStreamFillIsZero pins the zero-fill wire contract end to end:
// a delta-streamed session with actor turnover — parked cars entering
// and leaving a short camera range, so records shrink and grow across
// the reused frame buffer — delivers frames whose video fill is all
// zeros. The decoders check only the fill's length, so nothing else
// would notice stale record bytes leaking into it.
func TestDeltaStreamFillIsZero(t *testing.T) {
	ref := geom.MustPath([]geom.Vec2{geom.V(0, 0), geom.V(2000, 0)})
	w := world.New(&world.RoadMap{Name: "straight", Reference: ref, Lanes: []*world.Lane{
		{ID: "d1", Center: ref, Width: 3.5},
	}})
	ego, err := w.SpawnEgo(vehicle.Sedan(), geom.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	for _, station := range []float64{15, 35, 40, 80, 90, 95, 140, 200} {
		rail, err := world.NewRail(ref, station, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.SpawnScripted(world.KindParkedCar, "parked", geom.V(4.7, 1.9), rail); err != nil {
			t.Fatal(err)
		}
	}
	clk := simclock.New()
	var cli *Client
	frames, fills := 0, 0
	actors := map[int]bool{}
	conn := transport.Connect(clk, 77, transport.Options{Name: "fill", Reliable: true},
		func([]byte, uint64, time.Duration) {},
		func(p []byte, seq uint64, lat time.Duration) {
			var fill int
			switch MsgType(p[0]) {
			case MsgFrame:
				fill = int(binary.BigEndian.Uint32(p[1+18:]))
				actors[int(binary.BigEndian.Uint16(p[1+16:]))] = true
			case MsgDeltaFrame:
				fill = int(binary.BigEndian.Uint32(p[1+28:]))
				actors[int(binary.BigEndian.Uint16(p[1+32:]))] = true
			}
			if fill > 0 {
				frames++
				fills += fill
				for i, c := range p[len(p)-fill:] {
					if c != 0 {
						t.Fatalf("frame kind %d: fill byte %d of %d is %#x", p[0], i, fill, c)
					}
				}
			}
			cli.Handler()(p, seq, lat)
		})
	srv, err := NewServer(clk, w, ego, conn.A)
	if err != nil {
		t.Fatal(err)
	}
	if cli, err = NewClient(clk, conn.B); err != nil {
		t.Fatal(err)
	}
	srv.Camera().Range = 40
	srv.SetDeltaStreaming(true, 5)
	srv.Start()
	ego.Plant.Apply(cruise())
	clk.Advance(20 * time.Second)
	if st := srv.Stats(); frames < 300 || st.DeltasSent == 0 || len(actors) < 3 {
		t.Fatalf("checked %d frames (%d fill bytes), %d deltas, actor counts %v: not enough turnover", frames, fills, st.DeltasSent, actors)
	}
}
