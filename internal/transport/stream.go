// Framed stream: the one TCP framing teledrive speaks. The hub's
// station wire and campaignd's coordinator↔worker wire both carry
// messages as a 4-byte big-endian length followed by one FrameData
// frame. Seq holds a caller value (the hub's session id) and the first
// payload byte is a caller tag (the hub's message kind, campaignd's
// chunk flags); the rest of the payload is the body. The frame's CRC
// guards every message, and the read side treats the stream as
// hostile territory: it never panics, a clean close is exactly io.EOF,
// malformed or truncated input wraps ErrProtocol (FuzzStream), and an
// I/O error of the underlying reader passes through unchanged.
//
// The served hub relays thousands of messages a second through one
// socket, so the stream costs no allocation per message and as few
// syscalls as the traffic allows: writers group-commit into one pending
// buffer (StreamWriter), and a reader decodes into one reused buffer
// behind a large read buffer (StreamReader). DESIGN.md §13.7 has the
// contract.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ErrProtocol marks malformed input on a framed stream, and the
// malformed envelopes the stream's users find inside well-framed
// messages. Receivers count it and close the connection.
var ErrProtocol = errors.New("transport: protocol error")

// ProtocolErrorf returns an error that wraps ErrProtocol.
func ProtocolErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// MaxBody bounds a stream message body: one byte of the frame payload
// goes to the tag.
const MaxBody = MaxPayload - 1

// maxStreamFrame is the largest legal length prefix: a frame whose
// payload is a tag plus MaxBody bytes.
const maxStreamFrame = frameOverhead + MaxPayload

// maxPending caps the bytes a StreamWriter queues behind its write in
// flight. A writer that finds the queue at the cap waits for the write
// to finish, so a stalled peer pushes back on every sender instead of
// growing the queue without bound. The queue holds at most the cap plus
// one message.
const maxPending = 1 << 20

// readBufSize sizes a StreamReader's read buffer, so one read syscall
// picks up a whole burst of messages.
const readBufSize = 64 << 10

// StreamMsg is one decoded stream message.
type StreamMsg struct {
	Seq uint64
	Tag byte
	// Body aliases the StreamReader's buffer: it is valid only until the
	// next ReadMsg on the same reader. Copy what must outlive that.
	Body []byte
}

// StreamWriter frames messages onto a stream with group commit. Safe
// for concurrent use; each call frames one message. Each message is
// encoded straight into the pending buffer under the writer's lock. The
// first writer to find no write in flight becomes the flusher: it hands
// everything queued to the stream with one Write, outside the lock, and
// repeats until the queue is empty, while writers arriving meanwhile
// only append. The first write error is sticky: every later call
// returns it.
type StreamWriter struct {
	w io.Writer

	mu       sync.Mutex
	drained  sync.Cond // broadcast when a write in flight finishes
	pend     []byte    // framed messages not yet handed to w
	spare    []byte    // the last written buffer, reused as the next pend
	flushing bool      // a writer is inside w.Write
	err      error
}

// NewStreamWriter returns a writer that frames messages onto w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	sw := &StreamWriter{w: w}
	sw.drained.L = &sw.mu
	return sw
}

// WriteMsg frames one message and returns once it is on the stream, or
// at once when another caller's write is in flight: that flusher
// writes it next. body is not retained.
func (sw *StreamWriter) WriteMsg(seq uint64, tag byte, body []byte) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.appendLocked(seq, tag, body); err != nil {
		return err
	}
	return sw.flushLocked()
}

// QueueMsg frames one message without writing it: it leaves with the
// next Flush or WriteMsg on this writer. body is not retained.
func (sw *StreamWriter) QueueMsg(seq uint64, tag byte, body []byte) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.appendLocked(seq, tag, body)
}

// Flush writes everything queued.
func (sw *StreamWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.flushLocked()
}

// appendLocked encodes one message onto the pending buffer. At the cap
// it waits for the write in flight, or writes the queue itself when
// none is.
func (sw *StreamWriter) appendLocked(seq uint64, tag byte, body []byte) error {
	if len(body) > MaxBody {
		return ProtocolErrorf("body %d bytes exceeds %d", len(body), MaxBody)
	}
	for sw.err == nil && len(sw.pend) >= maxPending {
		if sw.flushing {
			sw.drained.Wait()
		} else if err := sw.flushLocked(); err != nil {
			return err
		}
	}
	if sw.err != nil {
		return sw.err
	}
	start := len(sw.pend)
	flen := frameOverhead + 1 + len(body)
	buf := slices.Grow(sw.pend, 4+flen)[:start+4+flen]
	binary.BigEndian.PutUint32(buf[start:], uint32(flen))
	frame := buf[start+4:]
	putHeader(frame, FrameData, seq, 0, 1+len(body))
	frame[headerLen] = tag
	copy(frame[headerLen+1:], body)
	putTrailer(frame)
	sw.pend = buf
	return nil
}

// flushLocked writes the queue until it is empty, unless a write is
// already in flight: that flusher carries the queue. Called with mu
// held; returns with it held.
func (sw *StreamWriter) flushLocked() error {
	if sw.flushing {
		return sw.err
	}
	sw.flushing = true
	for sw.err == nil && len(sw.pend) > 0 {
		buf := sw.pend
		sw.pend = sw.spare[:0]
		sw.mu.Unlock()
		_, err := sw.w.Write(buf)
		sw.mu.Lock()
		sw.spare = buf[:0]
		if err != nil {
			sw.err = err
			sw.pend = sw.pend[:0]
		}
		sw.drained.Broadcast()
	}
	sw.flushing = false
	return sw.err
}

// FlushingReader flushes W's queue before every read from R. Messages
// queued while the read goroutine handled what it had buffered leave
// together, before it waits for more input.
type FlushingReader struct {
	R io.Reader
	W *StreamWriter
}

func (f FlushingReader) Read(p []byte) (int, error) {
	// A write error is sticky: the next WriteMsg or QueueMsg reports it
	// to its sender, and reading goes on until the connection closes.
	//lint:allow errswallow sticky write error, reported by the next write on this writer
	_ = f.W.Flush()
	return f.R.Read(p)
}

// StreamReader decodes stream messages into one reused buffer. Not
// safe for concurrent use.
type StreamReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewStreamReader returns a reader of the messages framed on r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// ReadMsg reads one message. Its Body is valid until the next call.
// A clean close at a message boundary returns exactly io.EOF; malformed
// input, a stream that ends mid-message included, returns an error that
// wraps ErrProtocol. Any other read error (a deadline, a closed
// connection) is an I/O event, not hostile input, and returns
// unchanged.
func (sr *StreamReader) ReadMsg() (StreamMsg, error) {
	sr.buf = slices.Grow(sr.buf[:0], 4)
	lenbuf := sr.buf[:4]
	if _, err := io.ReadFull(sr.r, lenbuf); err != nil {
		if err == io.ErrUnexpectedEOF {
			return StreamMsg{}, fmt.Errorf("%w: truncated frame length: %w", ErrProtocol, err)
		}
		return StreamMsg{}, err
	}
	flen := binary.BigEndian.Uint32(lenbuf)
	if flen == 0 || flen > maxStreamFrame {
		return StreamMsg{}, ProtocolErrorf("frame length %d out of range", flen)
	}
	sr.buf = slices.Grow(sr.buf[:0], int(flen))
	wire := sr.buf[:flen]
	if _, err := io.ReadFull(sr.r, wire); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The stream ended after the length prefix.
			return StreamMsg{}, fmt.Errorf("%w: truncated frame: %w", ErrProtocol, io.ErrUnexpectedEOF)
		}
		return StreamMsg{}, err
	}
	frame, err := DecodeFrame(wire)
	if err != nil {
		return StreamMsg{}, ProtocolErrorf("%v", err)
	}
	if frame.Type != FrameData {
		return StreamMsg{}, ProtocolErrorf("unexpected frame type %v", frame.Type)
	}
	if len(frame.Payload) < 1 {
		return StreamMsg{}, ProtocolErrorf("empty frame payload")
	}
	return StreamMsg{Seq: frame.Seq, Tag: frame.Payload[0], Body: frame.Payload[1:]}, nil
}
