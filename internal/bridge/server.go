package bridge

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// PhysicsTick is the fixed physics step of the vehicle subsystem (50 Hz,
// matching CARLA's synchronous-mode default).
const PhysicsTick = 20 * time.Millisecond

// ServerStats counts server-side activity.
type ServerStats struct {
	FramesSent      uint64
	FramesDropped   uint64 // send-window full → frame skipped at the sender
	DeltasSent      uint64 // frames shipped as diffs (subset of FramesSent)
	ControlsApplied uint64
	EventsSent      uint64
	EventsDropped   uint64 // sensor events lost to a full window or a marshal failure
	MetasHandled    uint64
	ProtocolErrors  uint64 // malformed envelopes/bodies or kinds a server must never receive
}

// Server is the vehicle subsystem: it owns the world, steps physics at
// PhysicsTick, captures camera frames, streams sensor data to the
// client, and applies incoming controls to the ego plant. It mirrors the
// CARLA server role in the paper's Fig 3.
type Server struct {
	// OnTick, when non-nil, runs after every physics step with the
	// current simulated time. The scenario engine uses it to script
	// traffic and trigger fault injection.
	OnTick func(now time.Duration)

	clock  *simclock.Clock
	w      *world.World
	ego    *world.Actor
	cam    *sensors.Camera
	ep     *transport.Endpoint
	colSen *sensors.CollisionSensor
	lanSen *sensors.LaneInvasionSensor

	frameInterval time.Duration
	weather       string
	running       bool
	stopped       bool
	stats         ServerStats
	ins           *ServerInstruments // optional telemetry handles; nil = uninstrumented
	lastControl   vehicle.Control

	// view and frames are reused across camera ticks so the per-frame
	// capture→marshal→send path does not allocate. Reuse is safe because
	// transport.Endpoint.SendFill copies the head into its wire frames.
	view   sensors.WorldView
	frames sensors.FrameBuffer

	// Delta-streaming state (DESIGN.md §14). baseView is a copy of the
	// last successfully sent view — the diff base both peers hold. It
	// only advances on successful sends, so a window-full drop never
	// breaks the chain; on a lossy datagram link the client detects the
	// break (ErrDeltaBaseMismatch) and requests a keyframe.
	deltaStream   bool
	keyframeEvery int
	sinceKey      int
	forceKey      bool
	baseValid     bool
	baseView      sensors.WorldView

	// Owned tick timers (simclock.NewTimer): one struct per loop for the
	// server's whole life instead of a fresh Timer per tick.
	physTimer *simclock.Timer
	camTimer  *simclock.Timer
}

// NewServer builds the vehicle subsystem around an existing world and
// ego actor. ep is the server side of the bridge connection; wire its
// handler with Endpoint semantics via Handler().
func NewServer(clock *simclock.Clock, w *world.World, ego *world.Actor, ep *transport.Endpoint) (*Server, error) {
	if clock == nil || w == nil || ego == nil || ep == nil {
		return nil, fmt.Errorf("bridge: NewServer: nil dependency")
	}
	if ego.Plant == nil {
		return nil, fmt.Errorf("bridge: server ego %d has no dynamic plant", ego.ID)
	}
	s := &Server{
		clock:         clock,
		w:             w,
		ego:           ego,
		cam:           sensors.NewCamera(w, ego),
		ep:            ep,
		colSen:        sensors.NewCollisionSensor(w, ego.ID),
		lanSen:        sensors.NewLaneInvasionSensor(w, ego.ID),
		frameInterval: sensors.DefaultFrameInterval,
		weather:       "clear-day",
	}
	s.physTimer = clock.NewTimer(s.physicsTick)
	s.camTimer = clock.NewTimer(s.cameraTick)
	return s, nil
}

// Handler returns the transport handler processing client→server
// messages; pass it when constructing the transport endpoint.
func (s *Server) Handler() transport.Handler {
	return func(payload []byte, _ uint64, _ time.Duration) {
		s.handleMessage(payload)
	}
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats { return s.stats }

// World returns the simulated world (ground truth for logging).
func (s *Server) World() *world.World { return s.w }

// Ego returns the remotely driven actor.
func (s *Server) Ego() *world.Actor { return s.ego }

// Camera returns the server's camera (range adjustments, testing).
func (s *Server) Camera() *sensors.Camera { return s.cam }

// LastControl returns the most recently applied control command.
func (s *Server) LastControl() vehicle.Control { return s.lastControl }

// Weather returns the current weather meta-state.
func (s *Server) Weather() string { return s.weather }

// FrameInterval returns the camera frame period.
func (s *Server) FrameInterval() time.Duration { return s.frameInterval }

// SetOnTick registers the callback run after every physics step (the
// session layer's observer/supervision hook). It shadows any direct
// OnTick assignment.
func (s *Server) SetOnTick(fn func(now time.Duration)) { s.OnTick = fn }

// SetFrameInterval changes the camera frame period (effective from the
// next scheduled frame). Non-positive values are ignored.
func (s *Server) SetFrameInterval(d time.Duration) { s.trySetFrameInterval(d) }

// trySetFrameInterval is the single validation path for frame-interval
// changes: SetFrameInterval and the set_frame_interval meta-command
// both go through it, so the guard cannot be bypassed.
func (s *Server) trySetFrameInterval(d time.Duration) bool {
	if d <= 0 {
		return false
	}
	s.frameInterval = d
	return true
}

// DefaultKeyframeEvery is the delta-streaming keyframe cadence in
// frames: one keyframe per second at the default frame interval, so a
// station that missed a resync round-trip still recovers on its own.
const DefaultKeyframeEvery = 28

// SetDeltaStreaming switches the downlink between full-frame and
// keyframe+diff world-view streaming. keyframeEvery bounds the diff
// chain length (non-positive = DefaultKeyframeEvery). Enabling always
// restarts the chain with a keyframe. Delta streaming changes wire
// sizes — and therefore trajectories on an impaired link — so the
// canonical fingerprint cells run with it off.
func (s *Server) SetDeltaStreaming(on bool, keyframeEvery int) {
	s.deltaStream = on
	if keyframeEvery <= 0 {
		keyframeEvery = DefaultKeyframeEvery
	}
	s.keyframeEvery = keyframeEvery
	s.baseValid = false
	s.sinceKey = 0
	s.forceKey = false
}

// DeltaStreaming reports whether the downlink ships diffs.
func (s *Server) DeltaStreaming() bool { return s.deltaStream }

// Start schedules the physics and camera loops on the simulated clock.
// It is idempotent.
func (s *Server) Start() {
	if s.running {
		return
	}
	s.running = true
	s.stopped = false
	// Each Reschedule consumes one clock sequence number, exactly like
	// the per-tick Schedule calls it replaced, so event ordering (and
	// every trace fingerprint) is unchanged.
	s.clock.Cancel(s.physTimer)
	s.clock.Reschedule(s.physTimer, PhysicsTick)
	s.clock.Cancel(s.camTimer)
	s.clock.Reschedule(s.camTimer, s.frameInterval)
}

// Stop halts the loops after the current event.
func (s *Server) Stop() {
	s.stopped = true
	s.running = false
}

func (s *Server) physicsTick(now time.Duration) {
	if s.stopped {
		return
	}
	s.w.Step(PhysicsTick.Seconds())
	s.flushEvents()
	if s.OnTick != nil {
		s.OnTick(now)
	}
	s.clock.Reschedule(s.physTimer, PhysicsTick)
}

func (s *Server) cameraTick(now time.Duration) {
	if s.stopped {
		return
	}
	s.cam.CaptureInto(&s.view)
	keyframe := true
	var head []byte
	var fill int
	if s.deltaStream && s.baseValid && !s.forceKey && s.sinceKey < s.keyframeEvery {
		head, fill = s.frames.Delta(byte(MsgDeltaFrame), s.baseView, s.view, s.cam.VideoDeltaBytes)
		// A diff that does not beat the keyframe (mass actor turnover)
		// is pure downside — fall back to the self-contained form.
		if len(head)+fill < 1+sensors.WorldViewWireSize(s.view) {
			keyframe = false
		}
	}
	if keyframe {
		head, fill = s.frames.Keyframe(byte(MsgFrame), s.view)
	}
	if err := s.ep.SendFill(head, fill); err != nil {
		// Send window full: the sender-side socket buffer is congested;
		// drop this frame like a saturated video encoder queue would.
		// baseView stays at the last accepted send, keeping the diff
		// chain intact on a reliable link.
		s.stats.FramesDropped++
		if s.ins != nil {
			s.ins.FramesDropped.Inc()
		}
	} else {
		s.stats.FramesSent++
		if s.ins != nil {
			s.ins.FramesSent.Inc()
			s.ins.PayloadBytes.Add(uint64(len(head) + fill))
		}
		if s.deltaStream {
			s.rememberBase(keyframe)
		}
	}
	s.clock.Reschedule(s.camTimer, s.frameInterval)
}

// rememberBase records the just-sent view as the next diff base.
func (s *Server) rememberBase(keyframe bool) {
	s.baseView.Frame = s.view.Frame
	s.baseView.SimTime = s.view.SimTime
	s.baseView.VideoFill = s.view.VideoFill
	s.baseView.Ego = s.view.Ego
	s.baseView.Others = append(s.baseView.Others[:0], s.view.Others...)
	s.baseValid = true
	if keyframe {
		s.sinceKey = 0
		s.forceKey = false
		return
	}
	s.sinceKey++
	s.stats.DeltasSent++
	if s.ins != nil {
		s.ins.DeltasSent.Inc()
	}
}

// flushEvents streams buffered sensor events to the client.
func (s *Server) flushEvents() {
	for _, ev := range s.colSen.Drain() {
		s.sendEvent(MsgCollision, collisionToWire(ev))
	}
	for _, ev := range s.lanSen.Drain() {
		s.sendEvent(MsgLaneInvasion, laneInvasionToWire(ev))
	}
}

// sendEvent streams one sensor event. A marshal failure or a full send
// window loses the event — a collision the operator never learns about
// — so every loss is counted instead of vanishing silently.
func (s *Server) sendEvent(t MsgType, v any) {
	buf, err := marshalJSONMsg(t, v)
	if err == nil {
		err = s.ep.Send(buf)
	}
	if err != nil {
		s.stats.EventsDropped++
		if s.ins != nil {
			s.ins.EventsDropped.Inc()
		}
		return
	}
	s.stats.EventsSent++
	if s.ins != nil {
		s.ins.EventsSent.Inc()
	}
}

func (s *Server) handleMessage(payload []byte) {
	t, body, err := splitEnvelope(payload)
	if err != nil {
		s.stats.ProtocolErrors++
		return
	}
	switch t {
	case MsgControl:
		c, err := UnmarshalControl(body)
		if err != nil {
			s.stats.ProtocolErrors++
			return
		}
		s.lastControl = c
		s.ego.Plant.Apply(c)
		s.stats.ControlsApplied++
		if s.ins != nil {
			s.ins.ControlsApplied.Inc()
		}
	case MsgMeta:
		var cmd MetaCommand
		if err := json.Unmarshal(body, &cmd); err != nil {
			s.stats.ProtocolErrors++
			return
		}
		s.handleMeta(cmd)
	default:
		// MsgFrame, MsgDeltaFrame, MsgCollision, MsgLaneInvasion, and
		// MsgMetaReply flow server→client only; receiving one here — or
		// a kind this build does not know — is peer confusion to count,
		// not traffic to ignore.
		s.stats.ProtocolErrors++
	}
}

func (s *Server) handleMeta(cmd MetaCommand) {
	s.stats.MetasHandled++
	reply := MetaReply{Seq: cmd.Seq, OK: true}
	switch cmd.Cmd {
	case "ping":
		reply.Data = map[string]string{"time_ns": strconv.FormatInt(int64(s.clock.Now()), 10)}
	case "set_weather":
		w := cmd.Args["weather"]
		if w == "" {
			reply.OK = false
			reply.Error = "set_weather: missing weather arg"
			break
		}
		s.weather = w
		// Night reduces the usable camera range (headlight reach),
		// which is how the paper's day/night OD conditions enter the
		// model.
		if strings.Contains(w, "night") {
			s.cam.Range = 90
		} else {
			s.cam.Range = 150
		}
	case "set_frame_interval":
		// One validation path: the same guard SetFrameInterval uses, so
		// the meta-command can never smuggle in an interval the API
		// rejects.
		d, err := time.ParseDuration(cmd.Args["interval"])
		if err != nil || !s.trySetFrameInterval(d) {
			reply.OK = false
			reply.Error = fmt.Sprintf("set_frame_interval: bad interval %q", cmd.Args["interval"])
		}
	case "request_keyframe":
		// Station lost the diff chain (or just joined): restart it with
		// a self-contained frame on the next camera tick.
		s.forceKey = true
	case "get_stats":
		reply.Data = map[string]string{
			"frames_sent":    strconv.FormatUint(s.stats.FramesSent, 10),
			"frames_dropped": strconv.FormatUint(s.stats.FramesDropped, 10),
			"deltas_sent":    strconv.FormatUint(s.stats.DeltasSent, 10),
			"events_sent":    strconv.FormatUint(s.stats.EventsSent, 10),
			"events_dropped": strconv.FormatUint(s.stats.EventsDropped, 10),
			"weather":        s.weather,
		}
	default:
		reply.OK = false
		reply.Error = fmt.Sprintf("unknown meta command %q", cmd.Cmd)
	}
	if buf, err := marshalJSONMsg(MsgMetaReply, reply); err == nil {
		// Best-effort: a full window drops the reply like any datagram.
		_ = s.ep.Send(buf)
	}
}
