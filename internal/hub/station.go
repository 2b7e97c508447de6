package hub

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/sensors"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
)

// Station is the remote-operator side of a hub connection: one TCP
// stream carrying any number of concurrently driven sessions. Safe for
// concurrent use; each StationSession additionally serializes its own
// frame state.
type Station struct {
	c  net.Conn
	ww *transport.StreamWriter

	// joinMu serializes enqueue+write of a join so the FIFO queue order
	// always matches the order requests hit the wire.
	joinMu sync.Mutex

	mu       sync.Mutex
	sessions map[uint64]*StationSession
	joinQ    []chan joinAnswer // FIFO: the hub answers joins in order
	err      error             // terminal connection error
	closed   chan struct{}
}

type joinAnswer struct {
	ss  *StationSession
	err error
}

// Dial connects a station to a hub.
func Dial(addr string) (*Station, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hub: dial %s: %w", addr, err)
	}
	return NewStation(c), nil
}

// NewStation wraps an established connection (tests use in-memory
// pipes).
func NewStation(c net.Conn) *Station {
	st := &Station{
		c:        c,
		ww:       transport.NewStreamWriter(c),
		sessions: make(map[uint64]*StationSession),
		closed:   make(chan struct{}),
	}
	go st.readLoop()
	return st
}

// Close tears the connection down; every session ends with reason
// "killed" locally.
func (st *Station) Close() error { return st.c.Close() }

// Err returns the terminal connection error, if any.
func (st *Station) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// send writes one message of session ss. From inside ss's OnFrame
// callback it only queues the message: the read goroutine flushes its
// queue before it next reads the socket, so the controls answering a
// burst of frames leave in one write. From any other goroutine the
// message is written at once, except that a send for ss while its
// callback runs is queued too and leaves with the callback's.
func (st *Station) send(ss *StationSession, kind byte, body []byte) error {
	if ss.inOnFrame.Load() {
		return st.ww.QueueMsg(ss.ID, kind, body)
	}
	return st.ww.WriteMsg(ss.ID, kind, body)
}

// Join asks the hub for a session and waits for the answer (or the
// connection's death).
func (st *Station) Join(req JoinRequest) (*StationSession, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ch := make(chan joinAnswer, 1)
	st.joinMu.Lock()
	st.mu.Lock()
	if st.err != nil {
		err := st.err
		st.mu.Unlock()
		st.joinMu.Unlock()
		return nil, err
	}
	st.joinQ = append(st.joinQ, ch)
	st.mu.Unlock()
	werr := st.ww.WriteMsg(0, kindJoin, body)
	if werr != nil {
		// Unwind the enqueue (joinMu held: ours is still the newest).
		st.mu.Lock()
		if n := len(st.joinQ); n > 0 && st.joinQ[n-1] == ch {
			st.joinQ = st.joinQ[:n-1]
		}
		st.mu.Unlock()
	}
	st.joinMu.Unlock()
	if werr != nil {
		return nil, werr
	}
	ans := <-ch
	return ans.ss, ans.err
}

func (st *Station) lookup(id uint64) *StationSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sessions[id]
}

// readLoop demuxes hub→station traffic until the connection dies.
func (st *Station) readLoop() {
	var terminal error
	sr := transport.NewStreamReader(transport.FlushingReader{R: st.c, W: st.ww})
	for {
		m, err := sr.ReadMsg()
		if err != nil {
			if err != io.EOF {
				terminal = err
			}
			break
		}
		//lint:allow exhaustiveenvelope deliberate filter: kindJoin/kindLeave are uplink-only, and unknown kinds from a newer hub are tolerated rather than fatal
		switch m.Tag {
		case kindJoined:
			// The session registers HERE, on the read goroutine, before the
			// next message is read — a turbo hub can flood frames (and even
			// the terminal end) immediately after the reply, and none of it
			// may be missed.
			var reply JoinReply
			jerr := json.Unmarshal(m.Body, &reply)
			st.mu.Lock()
			var ch chan joinAnswer
			if len(st.joinQ) > 0 {
				ch = st.joinQ[0]
				st.joinQ = st.joinQ[1:]
			}
			st.mu.Unlock()
			if ch == nil {
				continue // unsolicited join reply
			}
			switch {
			case jerr != nil:
				ch <- joinAnswer{err: transport.ProtocolErrorf("bad join reply: %v", jerr)}
			case reply.Error != "":
				ch <- joinAnswer{err: fmt.Errorf("hub: join rejected: %s", reply.Error)}
			default:
				ss := &StationSession{
					st:       st,
					ID:       reply.SessionID,
					Scenario: reply.Scenario,
					done:     make(chan struct{}),
				}
				st.mu.Lock()
				st.sessions[ss.ID] = ss
				st.mu.Unlock()
				ch <- joinAnswer{ss: ss}
			}
		case kindBridge:
			if ss := st.lookup(m.Seq); ss != nil {
				ss.handleBridge(m.Body)
			}
		case kindEnd:
			var end SessionEnd
			if json.Unmarshal(m.Body, &end) != nil {
				continue
			}
			if ss := st.lookup(m.Seq); ss != nil {
				st.mu.Lock()
				delete(st.sessions, m.Seq)
				st.mu.Unlock()
				ss.finish(&end)
			}
		case kindError:
			var we WireError
			if json.Unmarshal(m.Body, &we) == nil && we.Error != "" {
				terminal = fmt.Errorf("hub: %s", we.Error)
			}
		}
	}

	// Connection gone: fail pending joins, end every session locally.
	st.mu.Lock()
	st.err = terminal
	if st.err == nil {
		st.err = fmt.Errorf("hub: connection closed")
	}
	joins := st.joinQ
	st.joinQ = nil
	open := make([]*StationSession, 0, len(st.sessions))
	for id, ss := range st.sessions {
		open = append(open, ss)
		delete(st.sessions, id)
	}
	err := st.err
	st.mu.Unlock()
	for _, ch := range joins {
		ch <- joinAnswer{err: err}
	}
	for _, ss := range open {
		ss.finish(&SessionEnd{SessionID: ss.ID, Reason: "killed"})
	}
	close(st.closed)
	_ = st.c.Close()
}

// StationStats counts one session's station-side activity.
type StationStats struct {
	bridge.DisplayStats // FramesReceived, FramesStale, DeltasApplied, DeltaResyncs
	ControlsSent        uint64
	Collisions          uint64
	LaneInvasions       uint64
	MetaReplies         uint64
	ProtocolErrors      uint64
}

// StationSession is one remotely driven session as seen from the
// station: the latest reconstructed world view plus command senders.
type StationSession struct {
	st       *Station
	ID       uint64
	Scenario string

	// inOnFrame is set while the read goroutine runs onFrame, so the
	// session's writes from the callback queue (Station.send).
	inOnFrame atomic.Bool

	mu         sync.Mutex
	onFrame    func(view sensors.WorldView)
	disp       bridge.Display
	receivedAt time.Time
	stats      StationStats // DisplayStats filled in by Stats
	metaSeq    uint64
	end        *SessionEnd
	endOnce    sync.Once
	done       chan struct{}
}

// Stats snapshots the session counters.
func (ss *StationSession) Stats() StationStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s := ss.stats
	s.DisplayStats = ss.disp.Stats()
	return s
}

// Frame returns a copy of the displayed world view. ok is false until
// the first frame arrives.
func (ss *StationSession) Frame() (view sensors.WorldView, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	view, ok = ss.disp.View()
	if !ok {
		return sensors.WorldView{}, false
	}
	view.Others = slices.Clone(view.Others)
	return view, true
}

// FrameAge returns the wall-clock age of the displayed frame (a remote
// station lives in real time; there is no shared simulated clock).
func (ss *StationSession) FrameAge() time.Duration {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.disp.View(); !ok {
		return time.Duration(-1)
	}
	//lint:allow wallclock remote station: frame age is genuinely wall-clock time, there is no local simclock
	return time.Since(ss.receivedAt)
}

// SendControl transmits a driving command to the session's plant.
func (ss *StationSession) SendControl(ctrl vehicle.Control) error {
	var buf [bridge.ControlMsgLen]byte
	if err := ss.st.send(ss, kindBridge, bridge.AppendControlMsg(buf[:0], ctrl)); err != nil {
		return err
	}
	ss.mu.Lock()
	ss.stats.ControlsSent++
	ss.mu.Unlock()
	return nil
}

// SendMeta transmits a meta-command, returning its sequence number.
func (ss *StationSession) SendMeta(cmd string, args map[string]string) (uint64, error) {
	seq, msg, err := ss.metaMsg(cmd, args)
	if err != nil {
		return 0, err
	}
	return seq, ss.st.send(ss, kindBridge, msg)
}

// metaMsg numbers a meta-command and encodes it as a bridge message.
func (ss *StationSession) metaMsg(cmd string, args map[string]string) (uint64, []byte, error) {
	ss.mu.Lock()
	ss.metaSeq++
	seq := ss.metaSeq
	ss.mu.Unlock()
	body, err := json.Marshal(bridge.MetaCommand{Seq: seq, Cmd: cmd, Args: args})
	if err != nil {
		return 0, nil, err
	}
	return seq, append([]byte{byte(bridge.MsgMeta)}, body...), nil
}

// Leave detaches from the session; the hub tears it down and answers
// with a terminal SessionEnd.
func (ss *StationSession) Leave() error {
	return ss.st.send(ss, kindLeave, nil)
}

// Wait blocks until the session ends (SessionEnd received or the
// connection died) or the timeout expires.
func (ss *StationSession) Wait(timeout time.Duration) (*SessionEnd, bool) {
	select {
	case <-ss.done:
		ss.mu.Lock()
		defer ss.mu.Unlock()
		return ss.end, true
	//lint:allow wallclock remote station: waiting on a real network peer is a wall-clock affair
	case <-time.After(timeout):
		return nil, false
	}
}

func (ss *StationSession) finish(end *SessionEnd) {
	ss.endOnce.Do(func() {
		ss.mu.Lock()
		ss.end = end
		ss.mu.Unlock()
		close(ss.done)
	})
}

// handleBridge processes one relayed bridge message. Runs on the
// connection's read goroutine.
func (ss *StationSession) handleBridge(payload []byte) {
	if len(payload) == 0 {
		ss.mu.Lock()
		ss.stats.ProtocolErrors++
		ss.mu.Unlock()
		return
	}
	t, body := bridge.MsgType(payload[0]), payload[1:]
	var o bridge.Outcome
	requestKeyframe := false
	ss.mu.Lock()
	switch t {
	case bridge.MsgFrame, bridge.MsgDeltaFrame:
		o, requestKeyframe = ss.disp.Apply(t, body)
		if o == bridge.Shown {
			//lint:allow wallclock remote station: frame arrival is stamped in wall time, there is no local simclock
			ss.receivedAt = time.Now()
		} else if o == bridge.Malformed {
			ss.stats.ProtocolErrors++
		}
	case bridge.MsgCollision:
		ss.stats.Collisions++
	case bridge.MsgLaneInvasion:
		ss.stats.LaneInvasions++
	case bridge.MsgMetaReply:
		ss.stats.MetaReplies++
	default:
		ss.stats.ProtocolErrors++
	}
	fire := ss.onFrame
	view, _ := ss.disp.View()
	ss.mu.Unlock()
	// A keyframe request queues like a control sent from the callback:
	// the read goroutine flushes it before it next reads the socket.
	if requestKeyframe {
		if _, msg, err := ss.metaMsg("request_keyframe", nil); err == nil {
			//lint:allow errswallow best-effort resync request: a dead connection ends the session via the read loop
			_ = ss.st.ww.QueueMsg(ss.ID, kindBridge, msg)
		}
	}
	// Fire outside the lock so the callback may call SendControl and
	// friends. Only this goroutine mutates view state, so the unlocked
	// view stays stable for the duration of the call.
	if o == bridge.Shown && fire != nil {
		ss.inOnFrame.Store(true)
		fire(view)
		ss.inOnFrame.Store(false)
	}
}

// SetOnFrame installs a callback that runs on the connection's read
// goroutine whenever a newer frame displays. The view is only valid
// during the call. Sending controls, meta commands or a leave for this
// session from inside it is allowed: they are queued and leave before
// the read goroutine next waits on the socket.
func (ss *StationSession) SetOnFrame(fn func(view sensors.WorldView)) {
	ss.mu.Lock()
	ss.onFrame = fn
	ss.mu.Unlock()
}
