package bridge

import (
	"encoding/json"
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
	DisplayStats      // FramesReceived, FramesStale, DeltasApplied, DeltaResyncs
	ControlsSent      uint64
	ControlsDropped   uint64 // send-window full
	CollisionsSeen    uint64
	LaneInvasionsSeen uint64
	MetaRepliesSeen   uint64
	ProtocolErrors    uint64 // malformed envelopes or frame bodies, or kinds a client must never receive
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

	// disp is the displayed frame; a view handed out (Frame, OnFrame)
	// is stable only until the next displayed frame (see Display).
	disp       Display
	latestLat  time.Duration // transport latency of the displayed frame
	receivedAt time.Duration // when the displayed frame arrived
	metaSeq    uint64
	stats      ClientStats        // DisplayStats filled in by Stats
	ins        *ClientInstruments // optional telemetry handles; nil = uninstrumented

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
func (c *Client) Stats() ClientStats {
	s := c.stats
	s.DisplayStats = c.disp.Stats()
	return s
}

// Frame returns the currently displayed world view. ok is false until
// the first frame arrives.
func (c *Client) Frame() (view sensors.WorldView, ok bool) { return c.disp.View() }

// FrameAge returns how stale the displayed frame's content is: the time
// elapsed since the frame was captured on the vehicle, as observable at
// the station (transport latency + time since arrival). This is the
// quantity network faults inflate and the driver model perceives.
func (c *Client) FrameAge() time.Duration {
	if _, ok := c.disp.View(); !ok {
		return time.Duration(-1)
	}
	return c.latestLat + (c.clock.Now() - c.receivedAt)
}

// FrameLatency returns the transport latency of the displayed frame.
func (c *Client) FrameLatency() time.Duration { return c.latestLat }

// SendControl transmits a driving command to the vehicle. A full send
// window drops the command (counted), like a congested socket, and
// returns the transport's error as is: callers only count it, so a
// dropped command allocates nothing.
func (c *Client) SendControl(ctrl vehicle.Control) error {
	c.ctrlBuf = AppendControlMsg(c.ctrlBuf[:0], ctrl)
	if err := c.ep.Send(c.ctrlBuf); err != nil {
		c.stats.ControlsDropped++
		if c.ins != nil {
			c.ins.ControlsDropped.Inc()
		}
		return err
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
	case MsgFrame, MsgDeltaFrame:
		o, requestKeyframe := c.disp.Apply(t, body)
		if requestKeyframe {
			// Best-effort: a lost request is retried at a later break,
			// and the server's keyframe cadence recovers the chain anyway.
			_, _ = c.SendMeta("request_keyframe", nil)
		}
		switch o {
		case Shown:
			if c.ins != nil {
				c.ins.FramesReceived.Inc()
			}
			c.latestLat = latency
			c.receivedAt = c.clock.Now()
			if c.OnFrame != nil {
				c.OnFrame(c.disp.view, latency)
			}
		case Stale:
			if c.ins != nil {
				c.ins.FramesReceived.Inc()
				c.ins.FramesStale.Inc()
			}
		case Malformed:
			c.stats.ProtocolErrors++
		case Resync: // counted by the display; the request above is the answer
		}
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

// Session bundles a connected server/client pair over an emulated
// network — one complete RDS communication stack.
type Session struct {
	Server *Server
	Client *Client
	Conn   *transport.Conn
}

// NewSessionWithTransport wires a vehicle-subsystem server and an
// operator-station client over a fresh connection with the given seed
// and transport options — Reliable for the paper's TCP-like setup,
// datagram mode for the transport ablation (DESIGN.md §5.1). Fault
// rules are injected through Conn.Links.
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
