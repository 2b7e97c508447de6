package bridge

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// ClientStats counts operator-station activity.
type ClientStats struct {
	FramesReceived    uint64
	FramesStale       uint64 // frames older than the one already displayed
	DeltasApplied     uint64 // frames reconstructed from diffs (subset of FramesReceived)
	DeltaResyncs      uint64 // diffs whose base the station no longer held
	ControlsSent      uint64
	ControlsDropped   uint64 // send-window full
	CollisionsSeen    uint64
	LaneInvasionsSeen uint64
	MetaRepliesSeen   uint64
	ProtocolErrors    uint64 // malformed envelopes or kinds a client must never receive
}

// Client is the operator-station side of the bridge: it tracks the most
// recently displayed frame (what the human — or the driver model — can
// see), exposes the frame's age, and sends driving commands and
// meta-commands. It mirrors the CARLA client role in the paper's Fig 3.
type Client struct {
	// OnFrame, when non-nil, runs whenever a newer frame is displayed.
	OnFrame func(view sensors.WorldView, latency time.Duration)
	// OnCollision / OnLaneInvasion receive sensor events forwarded by
	// the server.
	OnCollision    func(CollisionWire)
	OnLaneInvasion func(LaneInvasionWire)
	// OnMetaReply receives replies to meta-commands.
	OnMetaReply func(MetaReply)

	clock *simclock.Clock
	ep    *transport.Endpoint

	latest      sensors.WorldView
	latestValid bool
	latestLat   time.Duration // transport latency of the displayed frame
	receivedAt  time.Duration // when the displayed frame arrived
	metaSeq     uint64
	stats       ClientStats
	ins         *ClientInstruments // optional telemetry handles; nil = uninstrumented

	// resyncStreak spaces out keyframe requests while the diff chain is
	// broken; it resets whenever a frame is accepted.
	resyncStreak int

	// decodeView double-buffers the frame decode: each MsgFrame is
	// decoded into it, and on acceptance it is swapped with latest, so
	// the displaced view's actor backing becomes the next decode target.
	// A view handed out (Frame, OnFrame) is therefore stable only until
	// the next accepted frame — consumers that look further back copy
	// what they keep (the driver's reaction buffer does).
	decodeView sensors.WorldView
	// ctrlBuf is the reused control envelope; the transport copies the
	// payload into pooled fragments, so reuse across sends is safe.
	ctrlBuf []byte
}

// NewClient builds the operator station side. ep is the client transport
// endpoint; wire its handler via Handler().
func NewClient(clock *simclock.Clock, ep *transport.Endpoint) (*Client, error) {
	if clock == nil || ep == nil {
		return nil, fmt.Errorf("bridge: NewClient: nil dependency")
	}
	return &Client{clock: clock, ep: ep}, nil
}

// Handler returns the transport handler processing server→client
// messages; pass it when constructing the transport endpoint.
func (c *Client) Handler() transport.Handler {
	return func(payload []byte, _ uint64, latency time.Duration) {
		c.handleMessage(payload, latency)
	}
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Frame returns the currently displayed world view. ok is false until
// the first frame arrives.
func (c *Client) Frame() (view sensors.WorldView, ok bool) {
	return c.latest, c.latestValid
}

// FrameAge returns how stale the displayed frame's content is: the time
// elapsed since the frame was captured on the vehicle, as observable at
// the station (transport latency + time since arrival). This is the
// quantity network faults inflate and the driver model perceives.
func (c *Client) FrameAge() time.Duration {
	if !c.latestValid {
		return time.Duration(-1)
	}
	return c.latestLat + (c.clock.Now() - c.receivedAt)
}

// FrameLatency returns the transport latency of the displayed frame.
func (c *Client) FrameLatency() time.Duration { return c.latestLat }

// SendControl transmits a driving command to the vehicle. A full send
// window drops the command (counted), like a congested socket.
func (c *Client) SendControl(ctrl vehicle.Control) error {
	c.ctrlBuf = AppendControlMsg(c.ctrlBuf[:0], ctrl)
	if err := c.ep.Send(c.ctrlBuf); err != nil {
		c.stats.ControlsDropped++
		if c.ins != nil {
			c.ins.ControlsDropped.Inc()
		}
		return fmt.Errorf("bridge: send control: %w", err)
	}
	c.stats.ControlsSent++
	if c.ins != nil {
		c.ins.ControlsSent.Inc()
	}
	return nil
}

// SendMeta transmits a meta-command and returns its sequence number for
// correlation with the reply.
func (c *Client) SendMeta(cmd string, args map[string]string) (uint64, error) {
	c.metaSeq++
	m := MetaCommand{Seq: c.metaSeq, Cmd: cmd, Args: args}
	buf, err := marshalJSONMsg(MsgMeta, m)
	if err != nil {
		return 0, err
	}
	if err := c.ep.Send(buf); err != nil {
		return 0, fmt.Errorf("bridge: send meta: %w", err)
	}
	return c.metaSeq, nil
}

func (c *Client) handleMessage(payload []byte, latency time.Duration) {
	t, body, err := splitEnvelope(payload)
	if err != nil {
		c.stats.ProtocolErrors++
		return
	}
	switch t {
	case MsgFrame:
		if err := sensors.UnmarshalWorldViewInto(&c.decodeView, body); err != nil {
			c.stats.ProtocolErrors++
			return
		}
		c.stats.FramesReceived++
		if c.ins != nil {
			c.ins.FramesReceived.Inc()
		}
		c.acceptDecoded(latency)
	case MsgDeltaFrame:
		// A diff applies against the displayed view; a chain break —
		// nothing displayed yet, or the base frame was lost on the way —
		// asks the server to restart with a keyframe.
		if !c.latestValid {
			c.stats.DeltaResyncs++
			c.requestKeyframe()
			return
		}
		if err := sensors.ApplyWorldViewDelta(&c.decodeView, c.latest, body); err != nil {
			if errors.Is(err, sensors.ErrDeltaBaseMismatch) {
				c.stats.DeltaResyncs++
				c.requestKeyframe()
			} else {
				c.stats.ProtocolErrors++
			}
			return
		}
		c.stats.FramesReceived++
		c.stats.DeltasApplied++
		if c.ins != nil {
			c.ins.FramesReceived.Inc()
		}
		c.acceptDecoded(latency)
	case MsgCollision:
		var ev CollisionWire
		if json.Unmarshal(body, &ev) == nil {
			c.stats.CollisionsSeen++
			if c.OnCollision != nil {
				c.OnCollision(ev)
			}
		}
	case MsgLaneInvasion:
		var ev LaneInvasionWire
		if json.Unmarshal(body, &ev) == nil {
			c.stats.LaneInvasionsSeen++
			if c.OnLaneInvasion != nil {
				c.OnLaneInvasion(ev)
			}
		}
	case MsgMetaReply:
		var r MetaReply
		if json.Unmarshal(body, &r) == nil {
			c.stats.MetaRepliesSeen++
			if c.OnMetaReply != nil {
				c.OnMetaReply(r)
			}
		}
	default:
		// MsgControl and MsgMeta flow client→server only; receiving one
		// here — or a kind this build does not know — is peer confusion
		// to count, not traffic to ignore.
		c.stats.ProtocolErrors++
	}
}

// acceptDecoded promotes decodeView to the display if it is newer than
// what is shown. Only monotonically newer frames display; an older
// frame that arrives late (reordering, duplication) is discarded — its
// decode target is simply reused by the next frame.
func (c *Client) acceptDecoded(latency time.Duration) {
	if c.latestValid && c.decodeView.Frame <= c.latest.Frame {
		c.stats.FramesStale++
		if c.ins != nil {
			c.ins.FramesStale.Inc()
		}
		return
	}
	c.latest, c.decodeView = c.decodeView, c.latest
	c.latestValid = true
	c.latestLat = latency
	c.receivedAt = c.clock.Now()
	c.resyncStreak = 0
	if c.OnFrame != nil {
		c.OnFrame(c.latest, latency)
	}
}

// requestKeyframe asks the server to restart the diff chain. Spaced
// out: under sustained loss every broken diff would otherwise emit a
// meta-command, and the requests ride the same lossy uplink — so the
// first break asks immediately and persistence retries every eighth.
func (c *Client) requestKeyframe() {
	c.resyncStreak++
	if c.resyncStreak == 1 || c.resyncStreak%8 == 0 {
		// Best-effort: a lost request is retried by the streak above,
		// and the server's keyframe cadence recovers the chain anyway.
		_, _ = c.SendMeta("request_keyframe", nil)
	}
}

// Session bundles a connected server/client pair over an emulated
// network — one complete RDS communication stack.
type Session struct {
	Server *Server
	Client *Client
	Conn   *transport.Conn
}

// NewSession wires a vehicle-subsystem server and an operator-station
// client over a fresh reliable connection with the given seed — the
// paper's TCP-like setup. Fault rules are injected through Conn.Links.
func NewSession(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64) (*Session, error) {
	return NewSessionWithTransport(clock, w, ego, seed, transport.Options{Name: "bridge", Reliable: true})
}

// NewSessionWithTransport is NewSession with explicit transport options,
// e.g. datagram mode for the transport ablation (DESIGN.md §5.1).
func NewSessionWithTransport(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*Session, error) {
	// The handlers need the server/client objects, which need the
	// endpoints; break the cycle with late-bound closures.
	var srv *Server
	var cli *Client
	conn := transport.Connect(clock, seed, topts,
		func(payload []byte, seq uint64, lat time.Duration) {
			if srv != nil {
				srv.Handler()(payload, seq, lat)
			}
		},
		func(payload []byte, seq uint64, lat time.Duration) {
			if cli != nil {
				cli.Handler()(payload, seq, lat)
			}
		},
	)
	srv, err := NewServer(clock, w, ego, conn.A)
	if err != nil {
		return nil, err
	}
	cli, err = NewClient(clock, conn.B)
	if err != nil {
		return nil, err
	}
	return &Session{Server: srv, Client: cli, Conn: conn}, nil
}
