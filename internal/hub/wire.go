// Hub wire protocol: one TCP stream multiplexes every session a
// station drives. Each message is a 4-byte big-endian length prefix
// followed by one transport.EncodeFrame frame whose Seq field carries
// the session id and whose payload is a kind byte plus the body —
// bridge traffic is relayed verbatim under kindBridge, and a small set
// of JSON control messages (join/joined/leave/end/error) manages the
// session lifecycle. The framing reuses the transport codec for its
// CRC; like campaignd's, the read side treats the stream as hostile
// territory and must never panic (FuzzHubWire).
//
// Both ends relay thousands of frames a second, so the wire is built to
// cost no allocation per message and as few syscalls as the traffic
// allows: writers group-commit into one pending buffer per connection
// (wireWriter), and readers decode into one reused buffer behind a
// large read buffer (wireReader). DESIGN.md §14.3 has the contract.
package hub

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"teledrive/internal/netem"
	"teledrive/internal/transport"
)

// Message kinds. Bridge relay traffic is low-valued; control messages
// sit at 0xA0+ so a new bridge payload class can never collide.
const (
	kindBridge byte = 0x01 // either direction: raw bridge message for/from the session

	kindJoin   byte = 0xA0 // station → hub: JSON JoinRequest (session id 0)
	kindJoined byte = 0xA1 // hub → station: JSON JoinReply (session id assigned)
	kindLeave  byte = 0xA2 // station → hub: detach the session
	kindEnd    byte = 0xA3 // hub → station: JSON SessionEnd (terminal)
	kindError  byte = 0xA4 // hub → station: JSON WireError (connection-level)
)

// JoinRequest asks the hub to host a session. Joins on one connection
// are answered in request order (the station serializes them).
type JoinRequest struct {
	// Scenario names a library scenario (scenario.ByName).
	Scenario string `json:"scenario"`
	// Name labels the session in hub telemetry; empty = scenario name.
	Name string `json:"name,omitempty"`
	// Seed decorrelates the session's network randomness.
	Seed int64 `json:"seed"`
	// Delta enables keyframe+diff world-view streaming downlink.
	Delta bool `json:"delta,omitempty"`
	// KeyframeEvery bounds the diff chain (0 = bridge default).
	KeyframeEvery int `json:"keyframe_every,omitempty"`
	// FrameIntervalNS overrides the camera frame period (0 = default).
	FrameIntervalNS int64 `json:"frame_interval_ns,omitempty"`
	// VideoBytes overrides the synthetic encoded-video payload per full
	// frame (0 = sensors.DefaultVideoFrameBytes). Fragile links want
	// this small: every MTU's worth is one more fragment to lose.
	VideoBytes int `json:"video_bytes,omitempty"`
	// VideoDeltaBytes overrides the synthetic video residual shipped by
	// delta frames (0 = sensors.DefaultVideoDeltaBytes).
	VideoDeltaBytes int `json:"video_delta_bytes,omitempty"`
	// Rule, when non-nil, is a persistent netem impairment applied to
	// both directions of the session's emulated link.
	Rule *netem.Rule `json:"rule,omitempty"`
	// DurationNS bounds the session's simulated lifetime (0 = the
	// scenario timeout).
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Reliable selects the TCP-like channel (default true via pointer
	// absence is awkward in JSON, so the zero value means reliable and
	// Datagram flips it).
	Datagram bool `json:"datagram,omitempty"`
}

// JoinReply answers a JoinRequest.
type JoinReply struct {
	SessionID uint64 `json:"session_id"`
	Scenario  string `json:"scenario,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SessionEnd reports a session's terminal state.
type SessionEnd struct {
	SessionID uint64 `json:"session_id"`
	// Reason is "completed" (duration reached), "killed" (connection or
	// hub shutdown), "left" (station detached), or "error".
	Reason    string `json:"reason"`
	SimTimeNS int64  `json:"sim_time_ns"`
	// Terminal bridge counters, as the plant saw them.
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
	DeltasSent    uint64 `json:"deltas_sent"`
	EventsSent    uint64 `json:"events_sent"`
	EventsDropped uint64 `json:"events_dropped"`
	Controls      uint64 `json:"controls_applied"`
}

// WireError is a connection-level failure report.
type WireError struct {
	Error string `json:"error"`
}

// ErrHubProtocol marks malformed hub wire input. The hub counts these
// and closes the connection.
var ErrHubProtocol = errors.New("hub: protocol error")

func protocolErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrHubProtocol, fmt.Sprintf(format, args...))
}

// wireMsg is one decoded hub message.
type wireMsg struct {
	Session uint64
	Kind    byte
	// Body aliases the wireReader's buffer: it is valid only until the
	// next readMsg on the same reader. Copy what must outlive that.
	Body []byte
}

// maxBody bounds a hub message body: the largest bridge frame is a full
// world view (transport.MaxPayload already bounds what the relay can
// carry), control JSON is tiny. One byte of the frame payload goes to
// the kind tag.
const maxBody = transport.MaxPayload - 1

// maxHubWire is the largest legal encoded frame on the hub stream.
var maxHubWire = func() int {
	wire, err := transport.EncodeFrame(transport.Frame{
		Type: transport.FrameData, Payload: make([]byte, 1+maxBody),
	})
	if err != nil {
		panic(err)
	}
	return len(wire)
}()

// maxPending caps the bytes a connection queues behind its write in
// flight. A writer that finds the queue at the cap waits for the write
// to finish, so a stalled peer pushes back on every sender instead of
// growing the queue without bound. The queue holds at most the cap plus
// one message.
const maxPending = 1 << 20

// readBufSize sizes a connection's read buffer, so one read syscall
// picks up a whole burst of frames.
const readBufSize = 64 << 10

// wireWriter frames messages onto a stream with group commit. Safe for
// concurrent use. Each message is encoded straight into the pending
// buffer under the writer's lock. The first writer to find no write in
// flight becomes the flusher: it hands everything queued to the stream
// with one Write, outside the lock, and repeats until the queue is
// empty, while writers arriving meanwhile only append. The first write
// error is sticky: every later call returns it.
type wireWriter struct {
	w io.Writer

	mu       sync.Mutex
	drained  sync.Cond // broadcast when a write in flight finishes
	pend     []byte    // framed messages not yet handed to w
	spare    []byte    // the last written buffer, reused as the next pend
	msg      []byte    // kind+body scratch for EncodeFrameAppend
	flushing bool      // a writer is inside w.Write
	err      error
}

func newWireWriter(w io.Writer) *wireWriter {
	ww := &wireWriter{w: w}
	ww.drained.L = &ww.mu
	return ww
}

// writeMsg frames one message and returns once it is on the stream, or
// at once when another caller's write is in flight: that flusher
// writes it next. body is not retained.
func (ww *wireWriter) writeMsg(session uint64, kind byte, body []byte) error {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	if err := ww.appendLocked(session, kind, body); err != nil {
		return err
	}
	return ww.flushLocked()
}

// queueMsg frames one message without writing it: it leaves with the
// next flush or writeMsg on this writer. body is not retained.
func (ww *wireWriter) queueMsg(session uint64, kind byte, body []byte) error {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	return ww.appendLocked(session, kind, body)
}

// flush writes everything queued.
func (ww *wireWriter) flush() error {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	return ww.flushLocked()
}

// appendLocked encodes one message onto the pending buffer: a 4-byte
// big-endian length, then the transport frame of kind+body. At the cap
// it waits for the write in flight, or writes the queue itself when
// none is.
func (ww *wireWriter) appendLocked(session uint64, kind byte, body []byte) error {
	if len(body) > maxBody {
		return protocolErrf("body %d bytes exceeds %d", len(body), maxBody)
	}
	for ww.err == nil && len(ww.pend) >= maxPending {
		if ww.flushing {
			ww.drained.Wait()
		} else if err := ww.flushLocked(); err != nil {
			return err
		}
	}
	if ww.err != nil {
		return ww.err
	}
	ww.msg = append(append(ww.msg[:0], kind), body...)
	start := len(ww.pend)
	wire, err := transport.EncodeFrameAppend(append(ww.pend, 0, 0, 0, 0), transport.Frame{
		Type: transport.FrameData, Seq: session, Payload: ww.msg,
	})
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(wire[start:], uint32(len(wire)-start-4))
	ww.pend = wire
	return nil
}

// flushLocked writes the queue until it is empty, unless a write is
// already in flight: that flusher carries the queue. Called with mu
// held; returns with it held.
func (ww *wireWriter) flushLocked() error {
	if ww.flushing {
		return ww.err
	}
	ww.flushing = true
	for ww.err == nil && len(ww.pend) > 0 {
		buf := ww.pend
		ww.pend = ww.spare[:0]
		ww.mu.Unlock()
		_, err := ww.w.Write(buf)
		ww.mu.Lock()
		ww.spare = buf[:0]
		if err != nil {
			ww.err = err
			ww.pend = ww.pend[:0]
		}
		ww.drained.Broadcast()
	}
	ww.flushing = false
	return ww.err
}

// flushingReader flushes a writer's queue before every read from the
// connection. Messages queued while the read goroutine handled what it
// had buffered leave together, before it waits for more input.
type flushingReader struct {
	r  io.Reader
	ww *wireWriter
}

func (f flushingReader) Read(p []byte) (int, error) {
	// A write error is sticky: the next writeMsg or queueMsg reports it
	// to its sender, and reading goes on until the connection closes.
	//lint:allow errswallow sticky write error, reported by the next write on this writer
	_ = f.ww.flush()
	return f.r.Read(p)
}

// wireReader decodes hub messages from a stream into one reused buffer.
// Not safe for concurrent use.
type wireReader struct {
	r   *bufio.Reader
	buf []byte
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// readMsg reads one hub message. Its Body is valid until the next call.
// io.EOF marks a clean close at a message boundary; every malformed
// input returns an ErrHubProtocol-wrapped error.
func (wr *wireReader) readMsg() (wireMsg, error) {
	wr.buf = slices.Grow(wr.buf[:0], 4)
	lenbuf := wr.buf[:4]
	if _, err := io.ReadFull(wr.r, lenbuf); err != nil {
		if err == io.EOF {
			return wireMsg{}, io.EOF
		}
		return wireMsg{}, fmt.Errorf("%w: truncated frame length: %w", ErrHubProtocol, err)
	}
	wlen := binary.BigEndian.Uint32(lenbuf)
	if wlen == 0 || int(wlen) > maxHubWire {
		return wireMsg{}, protocolErrf("frame length %d out of range", wlen)
	}
	wr.buf = slices.Grow(wr.buf[:0], int(wlen))
	wire := wr.buf[:wlen]
	if _, err := io.ReadFull(wr.r, wire); err != nil {
		return wireMsg{}, fmt.Errorf("%w: truncated frame: %w", ErrHubProtocol, err)
	}
	frame, err := transport.DecodeFrame(wire)
	if err != nil {
		return wireMsg{}, protocolErrf("%v", err)
	}
	if frame.Type != transport.FrameData {
		return wireMsg{}, protocolErrf("unexpected frame type %v", frame.Type)
	}
	if len(frame.Payload) < 1 {
		return wireMsg{}, protocolErrf("empty frame payload")
	}
	return wireMsg{Session: frame.Seq, Kind: frame.Payload[0], Body: frame.Payload[1:]}, nil
}

// isEOF reports a clean close at a message boundary. Deliberately not
// errors.Is: a stream truncated mid-frame wraps io.EOF inside an
// ErrHubProtocol error, and that is hostile input, not a clean close.
func isEOF(err error) bool { return err == io.EOF }
