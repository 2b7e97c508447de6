package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
)

// Serve accepts station connections on ln until the listener closes (or
// Close is called) and hosts one live session per join. Every session
// has its own simulated clock and is stepped by one of the hub's
// Workers pacers (pacer.go); the shared TCP stream routes frames by
// session id. Serve returns nil once the hub is closed, including when
// Close ran before Serve started: a caller that starts Serve on a
// goroutine may close the hub at any time.
func (h *Hub) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		hc := &hubConn{h: h, c: c, ww: transport.NewStreamWriter(deadlineWriter{c}), sessions: make(map[uint64]*liveSession)}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = c.Close()
			return nil
		}
		h.conns[hc] = struct{}{}
		h.mu.Unlock()
		go hc.readLoop()
	}
}

// Close tears the hub down: every served connection closes and every
// live session is killed. Killed sessions finish within one physics
// tick, and each pacer goroutine returns once its last session has.
// Batch runs in flight finish normally.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	h.mu.Unlock()
	for _, hc := range conns {
		_ = hc.c.Close() // readLoop unwinds and kills its sessions
	}
}

// hubConn is one station connection: a read goroutine that demuxes
// incoming messages to its sessions, and a group-committing writer the
// sessions share for the downlink.
type hubConn struct {
	h  *Hub
	c  net.Conn
	ww *transport.StreamWriter

	mu       sync.Mutex
	sessions map[uint64]*liveSession
}

// stationWriteTimeout bounds one write to a station. Pacers write on
// behalf of every station they serve, so a station that stops reading
// must not hold one for longer than a few ticks: its write fails, and
// the writer's sticky error makes the pacer close the connection.
const stationWriteTimeout = 10 * bridge.PhysicsTick

// deadlineWriter writes to a station connection under a fresh write
// deadline, so a write blocks for at most stationWriteTimeout.
type deadlineWriter struct{ c net.Conn }

//lint:allow wallclock a write deadline is a point in real time
func (w deadlineWriter) Write(p []byte) (int, error) {
	if err := w.c.SetWriteDeadline(time.Now().Add(stationWriteTimeout)); err != nil {
		return 0, err
	}
	return w.c.Write(p)
}

func (hc *hubConn) writeJSON(session uint64, kind byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return hc.ww.WriteMsg(session, kind, body)
}

func (hc *hubConn) lookup(id uint64) *liveSession {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.sessions[id]
}

func (hc *hubConn) remove(id uint64) {
	hc.mu.Lock()
	delete(hc.sessions, id)
	hc.mu.Unlock()
}

// readLoop demuxes the station's uplink until the connection dies, then
// kills every session it spawned.
func (hc *hubConn) readLoop() {
	defer func() {
		hc.mu.Lock()
		live := make([]*liveSession, 0, len(hc.sessions))
		for _, ls := range hc.sessions {
			live = append(live, ls)
		}
		hc.mu.Unlock()
		for _, ls := range live {
			ls.kill("killed")
		}
		_ = hc.c.Close()
		hc.h.mu.Lock()
		delete(hc.h.conns, hc)
		hc.h.mu.Unlock()
	}()

	sr := transport.NewStreamReader(hc.c)
	for {
		m, err := sr.ReadMsg()
		if err != nil {
			// A close, an I/O error and hostile garbage end the same
			// way — the connection is done — but only garbage is
			// counted and answered.
			if errors.Is(err, transport.ErrProtocol) {
				if hc.h.ins != nil {
					hc.h.ins.ProtocolErrors.Inc()
				}
				//lint:allow errswallow best-effort farewell: the connection is already being torn down
				_ = hc.writeJSON(0, kindError, WireError{Error: err.Error()})
			}
			return
		}
		switch m.Tag {
		case kindJoin:
			var req JoinRequest
			if err := json.Unmarshal(m.Body, &req); err != nil {
				if hc.h.ins != nil {
					hc.h.ins.ProtocolErrors.Inc()
				}
				//lint:allow errswallow best-effort reject: a dead connection surfaces at the next read
				_ = hc.writeJSON(0, kindJoined, JoinReply{Error: "bad join request: " + err.Error()})
				continue
			}
			hc.handleJoin(req)
		case kindBridge:
			ls := hc.lookup(m.Seq)
			if ls == nil {
				// A message for a session that already ended races its
				// kindEnd — not an error, just late traffic.
				continue
			}
			select {
			case ls.inbox <- slices.Clone(m.Body): // Body is reused by the next read
			default:
				// Inbox full: the session is falling behind its station.
				// Shedding uplink load here mirrors a congested socket.
				if hc.h.ins != nil {
					hc.h.ins.UplinkDropped.Inc()
				}
			}
		case kindLeave:
			if ls := hc.lookup(m.Seq); ls != nil {
				ls.kill("left")
			}
		default:
			if hc.h.ins != nil {
				hc.h.ins.ProtocolErrors.Inc()
			}
		}
	}
}

// handleJoin builds a live session and answers the join. Joins on one
// connection are answered in request order because one goroutine (this
// read loop) processes them.
func (hc *hubConn) handleJoin(req JoinRequest) {
	ls, err := hc.h.newLiveSession(hc, req)
	if err != nil {
		//lint:allow errswallow best-effort reject: a dead connection surfaces at the next read
		_ = hc.writeJSON(0, kindJoined, JoinReply{Error: err.Error()})
		return
	}
	hc.mu.Lock()
	hc.sessions[ls.id] = ls
	hc.mu.Unlock()
	if err := hc.writeJSON(ls.id, kindJoined, JoinReply{SessionID: ls.id, Scenario: ls.scenarioName}); err != nil {
		// Station unreachable: abandon before the first tick.
		hc.remove(ls.id)
		hc.h.putScratch(ls.scratch)
		return
	}
	h := hc.h
	h.active.Add(1)
	if h.ins != nil {
		h.ins.SessionsActive.Inc()
	}
	h.pacers[ls.id%uint64(len(h.pacers))].add(ls)
}

// liveSession is one served operator↔plant session. Its pacer owns the
// simulated clock, the world, and the bridge server; the only
// cross-goroutine surfaces are the inbox channel, the end reason, and
// the shared connection writer.
type liveSession struct {
	id           uint64
	name         string
	scenarioName string
	h            *Hub
	conn         *hubConn

	clock    *simclock.Clock
	srv      *bridge.Server
	station  *transport.Endpoint // session-internal endpoint the relay feeds
	scratch  *session.RunScratch
	duration time.Duration
	turbo    bool

	inbox chan []byte // station→plant bridge messages, copied off the read buffer

	// p is set by add. reason, the end reason, is set once: by kill, or
	// by the pacer when the session has run its duration.
	p      *pacer
	reason atomic.Pointer[string]

	// Owned by the pacer's goroutine once add has handed the session
	// over.
	due  int64         // grid slot of the next step (alwaysDue when turbo)
	next time.Duration // simulated time the next step advances to
}

// newLiveSession builds the session world and stack. The caller
// registers it and hands it to a pacer.
func (h *Hub) newLiveSession(hc *hubConn, req JoinRequest) (*liveSession, error) {
	scn, ok := scenario.ByName(req.Scenario)
	if !ok {
		return nil, fmt.Errorf("hub: unknown scenario %q", req.Scenario)
	}
	if req.Rule != nil {
		if err := req.Rule.Validate(); err != nil {
			return nil, fmt.Errorf("hub: join rule: %w", err)
		}
	}
	art, err := h.arts.Get(scn)
	if err != nil {
		return nil, err
	}
	scr := h.getScratch()
	fail := func(err error) (*liveSession, error) {
		h.putScratch(scr)
		return nil, err
	}
	scr.Reset()
	built, err := scn.BuildWith(art, scr.World)
	if err != nil {
		return fail(err)
	}

	name := req.Name
	if name == "" {
		name = scn.Name
	}
	ls := &liveSession{
		id:           h.nextID.Add(1),
		name:         name,
		scenarioName: scn.Name,
		h:            h,
		conn:         hc,
		clock:        simclock.New(),
		scratch:      scr,
		turbo:        h.cfg.Turbo,
		inbox:        make(chan []byte, 256),
	}

	topts := transport.Options{Name: "hub", Reliable: !req.Datagram, Pools: scr.Pools}
	// Server handler late-binds (the endpoint exists before the server);
	// the station-side handler relays every delivered bridge message onto
	// the shared TCP stream under this session's id. QueueMsg copies the
	// payload into the connection's pending buffer and does not retain
	// it, honoring the pooled-delivery contract; the pacer flushes the
	// connection once after its batch.
	var srv *bridge.Server
	conn := transport.Connect(ls.clock, req.Seed, topts,
		func(payload []byte, seq uint64, lat time.Duration) {
			if srv != nil {
				srv.Handler()(payload, seq, lat)
			}
		},
		func(payload []byte, _ uint64, _ time.Duration) {
			//lint:allow errswallow best-effort downlink relay: the error is sticky, and the pacer's Flush of this connection reports it
			_ = ls.conn.ww.QueueMsg(ls.id, kindBridge, payload)
		},
	)
	srv, err = bridge.NewServer(ls.clock, built.World, built.Ego, conn.A)
	if err != nil {
		return fail(err)
	}
	ls.srv = srv
	ls.station = conn.B
	if h.cfg.Metrics != nil {
		srv.SetInstruments(bridge.NewServerInstrumentsSession(h.cfg.Metrics, name))
	}
	if req.Rule != nil {
		if err := conn.Links.ApplyBoth(*req.Rule); err != nil {
			return fail(err)
		}
	}
	if req.VideoBytes > 0 {
		srv.Camera().VideoFrameBytes = req.VideoBytes
	}
	if req.VideoDeltaBytes > 0 {
		srv.Camera().VideoDeltaBytes = req.VideoDeltaBytes
	}
	if req.Delta {
		srv.SetDeltaStreaming(true, req.KeyframeEvery)
	}
	if scn.Weather != "" {
		// Scenario weather applies through the same meta path a station
		// would use; the reply rides the downlink like any other.
		body, err := json.Marshal(bridge.MetaCommand{Cmd: "set_weather", Args: map[string]string{"weather": scn.Weather}})
		if err != nil {
			return fail(err)
		}
		srv.Handler()(append([]byte{byte(bridge.MsgMeta)}, body...), 0, 0)
	}
	ls.duration = scn.Timeout
	if req.DurationNS > 0 {
		ls.duration = time.Duration(req.DurationNS)
	}
	return ls, nil
}

// step sends everything the station sent since the last step into the
// session's uplink endpoint, in arrival order, then advances the clock
// to next. Nothing moves the clock between steps, so a message sent
// here goes out at the same clock.Now(), in the same event order, as
// one sent the moment it arrived; draining once per tick only saves the
// wakeups.
func (ls *liveSession) step(next time.Duration) {
	for {
		select {
		case buf := <-ls.inbox:
			// A full uplink window sheds like a congested socket.
			_ = ls.station.Send(buf)
		default:
			ls.clock.AdvanceTo(next)
			return
		}
	}
}
