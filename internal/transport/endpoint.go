package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// Default timer bounds. RTOMin matches Linux TCP's 200 ms floor — the
// constant responsible for the "video freezes then jumps" experience the
// paper reports at 5 % packet loss.
const (
	DefaultRTOMin = 200 * time.Millisecond
	DefaultRTOMax = 3 * time.Second
	// DefaultWindow is the maximum number of unacknowledged fragments
	// (MTU-sized packets), ≈ a 700 KiB socket buffer. When the window is
	// full, Send fails and the application decides what to drop (the
	// bridge drops stale video frames, like a saturated encoder queue).
	DefaultWindow = 512
)

// ErrWindowFull is returned by Send when the reliable channel has too
// many unacknowledged messages in flight. It is returned bare, so a
// rejected Send allocates nothing; Stats().WindowRejects and InFlight
// carry the detail.
var ErrWindowFull = errors.New("transport: send window full")

// MTU is the maximum fragment payload carried in one network packet.
// Messages larger than this are fragmented — exactly why a video frame
// of tens of kilobytes suffers far more from p% packet loss than p% of
// frames: with n fragments per frame, the chance a frame needs at least
// one retransmission is 1−(1−p)ⁿ.
const MTU = 1400

// fragment header: flags(1) msgID(4) fragIdx(2) fragCount(2).
const (
	fragHeaderLen = 9
	fragFlagLast  = 1 << 0
)

// Stats counts endpoint activity.
type Stats struct {
	MsgsSent       uint64
	FragmentsSent  uint64 // MTU-sized packets produced by fragmentation
	MsgsDelivered  uint64 // in-order deliveries to the application
	Retransmits    uint64
	CorruptDropped uint64 // frames that failed CRC/decoding
	DuplicateDrops uint64 // already-delivered data frames
	OutOfOrderHeld uint64 // frames buffered waiting for a gap to fill
	AcksSent       uint64
	AcksReceived   uint64
	WindowRejects  uint64 // Send calls rejected by a full window
	DatagramsStale uint64 // datagrams that arrived older than one already delivered
	SRTT           time.Duration
	RTO            time.Duration
}

// Handler consumes application messages delivered by an endpoint. seq is
// the sender's message sequence; latency is the end-to-end message
// latency including retransmission and head-of-line blocking time.
type Handler func(payload []byte, seq uint64, latency time.Duration)

// Options configures an Endpoint.
type Options struct {
	// Name appears in error messages ("vehicle", "station").
	Name string
	// Reliable selects the mini-TCP mode (true, default via NewReliable)
	// or fire-and-forget datagrams (false, via NewDatagram).
	Reliable bool
	// Window overrides DefaultWindow. Only meaningful when Reliable.
	Window int
	// RTOMin/RTOMax override the retransmission-timeout bounds.
	RTOMin, RTOMax time.Duration
	// Congestion enables Reno-style congestion control (slow start,
	// AIMD, multiplicative decrease on loss). Off by default: the
	// paper's loopback link has effectively unlimited bandwidth, so the
	// calibrated experiments run with a fixed window; enable this to
	// study throughput collapse under loss (BenchmarkAblationCongestion).
	Congestion bool
	// Pools recycles wire buffers, segment records and reassembly state
	// (see Pools). Nil gives the endpoint a private set; Connect gives
	// both of its endpoints and links one shared set.
	Pools *Pools
}

func (o *Options) fillDefaults() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.RTOMin <= 0 {
		o.RTOMin = DefaultRTOMin
	}
	if o.RTOMax <= 0 {
		o.RTOMax = DefaultRTOMax
	}
	if o.Name == "" {
		o.Name = "endpoint"
	}
	if o.Pools == nil {
		o.Pools = NewPools()
	}
}

// Endpoint is one side of a message channel. Create a connected pair
// with Connect, or wire endpoints to links manually with AttachLink +
// HandlePacket. Endpoint is not safe for concurrent use; it is driven by
// the single-threaded simulation loop.
//
// Delivery contract: the payload a Handler receives is valid only for
// the duration of the callback — it aliases a pooled reassembly buffer
// or the received packet. A handler copies what it keeps.
type Endpoint struct {
	opts    Options
	clock   *simclock.Clock
	out     *netem.Link
	handler Handler
	stats   Stats

	// Sender state.
	nextSeq  uint64
	unacked  []*segment // ordered by seq
	rtxTimer *simclock.Timer
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	backoff  uint
	lastAck  uint64
	dupAcks  int
	cwnd     float64 // congestion window in fragments (Congestion mode)
	ssthresh float64

	// Receiver state.
	nextExpected uint64             // next in-order seq to deliver (reliable)
	held         map[uint64]heldMsg // out-of-order buffer
	lastDatagram uint64             // newest datagram msgID delivered

	// Sender-side message numbering (one message = one or more
	// fragments).
	nextMsgID uint32
	// Reassembly of fragmented messages, keyed by msgID.
	partials map[uint32]*partialMsg

	pools  *Pools
	ackBuf [frameOverhead]byte // ACK encode scratch; netem clones every Send
}

// partialMsg reassembles one fragmented message in place: chunk idx
// lands at buf[idx*MTU:], so the complete message is buf[:total]. buf
// comes from the zeroed pool (see Pools), so a chunk's elided zeros are
// in place already; only its head bytes are written.
type partialMsg struct {
	buf     []byte
	got     []bool // per chunk index
	have    int
	total   int // message length, known once the last chunk arrives
	dirty   int // buf[dirty:] was never written
	firstTS time.Duration
}

// segment is one unacknowledged fragment. wire holds its encoded frame
// without the chunk's trailing zero bytes, which zeros counts; they sit
// just before the CRC trailer. transmit sends it; a retransmission
// resends it verbatim (it carries the original send time, as the
// latency accounting wants).
type segment struct {
	seq    uint64
	wire   []byte
	zeros  int
	sentAt time.Duration
	rtx    bool // retransmitted at least once (Karn's rule)
}

type heldMsg struct {
	payload []byte
	zeros   int // elided zeros after payload
	sentAt  time.Duration
}

// NewEndpoint creates an endpoint. The handler receives delivered
// messages; it must be non-nil. Call AttachLink before Send.
func NewEndpoint(clock *simclock.Clock, opts Options, handler Handler) *Endpoint {
	if clock == nil || handler == nil {
		panic("transport: NewEndpoint requires a clock and a handler")
	}
	opts.fillDefaults()
	e := &Endpoint{
		opts:         opts,
		clock:        clock,
		handler:      handler,
		nextSeq:      1,
		nextExpected: 1,
		held:         make(map[uint64]heldMsg),
		partials:     make(map[uint32]*partialMsg),
		rto:          opts.RTOMin,
		cwnd:         10, // RFC 6928 initial window
		ssthresh:     float64(opts.Window),
		pools:        opts.Pools,
	}
	// One owned retransmission timer, re-armed for the endpoint's whole
	// life instead of a fresh Timer per arming. It starts stopped, so the
	// Send-side Stopped() check arms it on first use exactly as before.
	e.rtxTimer = clock.NewTimer(e.onTimeout)
	return e
}

// sendWindow returns the current effective send window in fragments.
func (e *Endpoint) sendWindow() int {
	if !e.opts.Congestion {
		return e.opts.Window
	}
	w := int(e.cwnd)
	if w < 1 {
		w = 1
	}
	if w > e.opts.Window {
		w = e.opts.Window
	}
	return w
}

// Cwnd returns the congestion window in fragments (meaningful only in
// Congestion mode).
func (e *Endpoint) Cwnd() float64 { return e.cwnd }

// maxFragments bounds a message's fragment count: MaxPayload in MTU
// chunks. A larger count can only come from a hostile frame.
const maxFragments = (MaxPayload + MTU - 1) / MTU

// chunk splits fragment i of a message — head followed by fill zeros —
// into the head bytes it carries and the count of zeros after them.
func chunk(head []byte, fill, i int) (c []byte, zeros int) {
	lo := i * MTU
	hi := min(len(head)+fill, lo+MTU)
	c = head[min(lo, len(head)):min(hi, len(head))]
	return c, hi - lo - len(c)
}

// fragFrameLen is the length of a fragment frame carrying n chunk
// bytes, elided zeros not counted.
func fragFrameLen(n int) int { return frameOverhead + fragHeaderLen + n }

// putFragment encodes fragment idx of count — frame header, fragment
// header flags(1) msgID(4) fragIdx(2) fragCount(2), chunk, zeros zero
// bytes and CRC — in one pass into buf, which must be
// fragFrameLen(len(chunk)) bytes: the zeros are left out of buf and
// folded into the CRC by table. With the zeros written out before the
// trailer, the bytes equal EncodeFrame of a frame whose payload is the
// fragment header followed by the chunk and the zeros.
func putFragment(buf []byte, typ FrameType, seq uint64, ts time.Duration, msgID uint32, idx, count int, chunk []byte, zeros int) {
	putHeader(buf, typ, seq, ts, fragHeaderLen+len(chunk)+zeros)
	h := buf[headerLen:]
	h[0] = 0
	if idx == count-1 {
		h[0] = fragFlagLast
	}
	binary.BigEndian.PutUint32(h[1:5], msgID)
	binary.BigEndian.PutUint16(h[5:7], uint16(idx))
	binary.BigEndian.PutUint16(h[7:9], uint16(count))
	copy(h[fragHeaderLen:], chunk)
	body := len(buf) - trailerLen
	binary.BigEndian.PutUint32(buf[body:], checksumZeros(buf[:body], zeros))
}

// encodeFragment encodes fragment idx of count of a message into a
// pooled wire buffer and returns it with its elided zero count.
func (e *Endpoint) encodeFragment(typ FrameType, now time.Duration, msgID uint32, idx, count int, head []byte, fill int) (wire []byte, zeros int) {
	c, zeros := chunk(head, fill, idx)
	wire = e.pools.Net.Get(fragFrameLen(len(c)))
	putFragment(wire, typ, e.nextSeq, now, msgID, idx, count, c, zeros)
	e.nextSeq++
	e.stats.FragmentsSent++
	return wire, zeros
}

// transmit puts one fragment frame on the wire, its zeros elided just
// before the CRC trailer. Every send of a fragment goes through here —
// a datagram, a segment's first send, a fast retransmit, an RTO.
func (e *Endpoint) transmit(wire []byte, zeros int) {
	e.out.SendFill(wire, len(wire)-trailerLen, zeros) // netem clones
}

// cloneFrag copies a held frame payload into pooled storage.
func (e *Endpoint) cloneFrag(b []byte) []byte {
	out := e.pools.Net.Get(len(b))
	copy(out, b)
	return out
}

// parseFragment splits a fragment header off a wire payload.
func parseFragment(buf []byte) (msgID uint32, idx, count int, chunk []byte, ok bool) {
	if len(buf) < fragHeaderLen {
		return 0, 0, 0, nil, false
	}
	msgID = uint32(buf[1])<<24 | uint32(buf[2])<<16 | uint32(buf[3])<<8 | uint32(buf[4])
	idx = int(buf[5])<<8 | int(buf[6])
	count = int(buf[7])<<8 | int(buf[8])
	if count == 0 || idx >= count {
		return 0, 0, 0, nil, false
	}
	return msgID, idx, count, buf[fragHeaderLen:], true
}

// AttachLink sets the egress link toward the peer.
func (e *Endpoint) AttachLink(out *netem.Link) { e.out = out }

// Stats returns a snapshot of the endpoint counters, including the
// current RTT estimate.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.SRTT = e.srtt
	s.RTO = e.rto
	return s
}

// InFlight returns the number of unacknowledged messages.
func (e *Endpoint) InFlight() int { return len(e.unacked) }

// Send transmits one application message to the peer, fragmenting it
// into MTU-sized packets. In reliable mode it returns ErrWindowFull when
// the message's fragments do not fit in the unacknowledged window; in
// datagram mode it never fails (fragments may silently be lost, losing
// the whole message).
func (e *Endpoint) Send(payload []byte) error { return e.SendFill(payload, 0) }

// SendFill sends the message head followed by fill zero bytes, exactly
// as Send would, without the zeros ever being copied or read: each
// fragment's buffer holds only its share of head, and its CRC folds
// its zeros by table. The receiver delivers the same bytes as for Send.
func (e *Endpoint) SendFill(head []byte, fill int) error {
	if e.out == nil {
		return fmt.Errorf("transport: %s: no link attached", e.opts.Name)
	}
	if fill < 0 {
		return fmt.Errorf("transport: %s: negative fill %d", e.opts.Name, fill)
	}
	size := len(head) + fill
	if size > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooBig, size)
	}
	now := e.clock.Now()
	e.nextMsgID++
	msgID := e.nextMsgID
	n := max(1, (size+MTU-1)/MTU) // fragments; an empty message still takes one

	if !e.opts.Reliable {
		for i := 0; i < n; i++ {
			wire, zeros := e.encodeFragment(FrameDatagram, now, msgID, i, n, head, fill)
			e.transmit(wire, zeros)
			e.pools.Net.Put(wire)
		}
		e.stats.MsgsSent++
		return nil
	}

	// Window admission. In fixed-window mode the whole message must
	// fit. In congestion mode a message may overshoot the window once
	// the pipe has room (messages are atomic here, unlike TCP's byte
	// stream, so a frame larger than cwnd must still be sendable).
	if e.opts.Congestion {
		if len(e.unacked) >= e.sendWindow() {
			e.stats.WindowRejects++
			return ErrWindowFull
		}
	} else if len(e.unacked)+n > e.opts.Window {
		e.stats.WindowRejects++
		return ErrWindowFull
	}
	for i := 0; i < n; i++ {
		seg := e.pools.seg()
		seg.seq, seg.sentAt = e.nextSeq, now
		seg.wire, seg.zeros = e.encodeFragment(FrameData, now, msgID, i, n, head, fill)
		e.unacked = append(e.unacked, seg)
		e.transmit(seg.wire, seg.zeros)
	}
	e.stats.MsgsSent++
	if e.rtxTimer.Stopped() {
		e.armTimer()
	}
	return nil
}

// HandlePacket is the netem receiver for the endpoint's ingress link:
// wire it as the peer link's delivery callback.
//
// Only transmit elides zeros, and only as a fragment's trailing chunk
// bytes, right before the CRC trailer. A packet that elides them
// anywhere else, or whose ZeroAt or Zeros is out of range, is corrupt.
func (e *Endpoint) HandlePacket(pkt netem.Packet) {
	buf, zeros := pkt.Payload, pkt.Zeros
	at := pkt.ZeroAt
	if at < 0 || at > len(buf) || zeros < 0 || zeros > MaxPayload || (zeros > 0 && at != len(buf)-trailerLen) {
		e.stats.CorruptDropped++
		return
	}
	f, err := decodeFrame(buf, zeros)
	if err != nil {
		// Corrupt frames are indistinguishable from loss, as on a real
		// NIC that drops bad-checksum packets.
		e.stats.CorruptDropped++
		return
	}
	switch f.Type {
	case FrameAck:
		e.handleAck(f)
	case FrameData:
		e.handleData(f, zeros)
	case FrameDatagram:
		e.acceptFragment(f.Payload, zeros, f.Timestamp, e.clock.Now())
	default:
		e.stats.CorruptDropped++
	}
}

// handleData takes a reliable fragment frame whose payload is followed
// by zeros elided zero bytes.
func (e *Endpoint) handleData(f Frame, zeros int) {
	now := e.clock.Now()
	switch {
	case f.Seq < e.nextExpected:
		e.stats.DuplicateDrops++
	case f.Seq == e.nextExpected:
		e.acceptFragment(f.Payload, zeros, f.Timestamp, now)
		e.nextExpected++
		// Flush any consecutive held fragments. acceptFragment copies
		// what it keeps, so the held buffer is free afterwards.
		for {
			h, ok := e.held[e.nextExpected]
			if !ok {
				break
			}
			delete(e.held, e.nextExpected)
			e.acceptFragment(h.payload, h.zeros, h.sentAt, now)
			e.pools.Net.Put(h.payload)
			e.nextExpected++
		}
	default: // gap: hold until the missing segment arrives
		if _, dup := e.held[f.Seq]; !dup {
			e.held[f.Seq] = heldMsg{payload: e.cloneFrag(f.Payload), zeros: zeros, sentAt: f.Timestamp}
			e.stats.OutOfOrderHeld++
		} else {
			e.stats.DuplicateDrops++
		}
	}
	e.sendAck()
}

// acceptFragment feeds one received fragment — buf, then zeros elided
// zero bytes — into the reassembler and delivers the message once every
// fragment is present. The delivered latency spans from the earliest
// fragment's send time — so a frame delayed by a retransmitted fragment
// carries the whole stall.
//
// Only putFragment produces fragments, so every chunk but the last is
// exactly MTU bytes and the last is at most MTU; a fragment breaking
// that geometry is corrupt. A one-fragment message without zeros is
// delivered straight from buf.
func (e *Endpoint) acceptFragment(buf []byte, zeros int, ts, now time.Duration) {
	msgID, idx, count, c, ok := parseFragment(buf)
	n := len(c) + zeros
	if !ok || count > maxFragments || n > MTU || (idx < count-1 && n != MTU) {
		e.stats.CorruptDropped++
		return
	}
	if count == 1 {
		if zeros == 0 {
			e.complete(msgID, c, ts, now)
			return
		}
		msg := e.pools.zero.Get(n)
		copy(msg, c)
		e.complete(msgID, msg, ts, now)
		clear(msg[:len(c)])
		e.pools.zero.Put(msg)
		return
	}
	p := e.partials[msgID]
	if p == nil {
		p = e.pools.partial(count)
		p.firstTS = ts
		e.partials[msgID] = p
	}
	if len(p.got) != count {
		// Inconsistent duplicate with a different count: drop the whole
		// message rather than deliver garbage.
		delete(e.partials, msgID)
		e.pools.putPartial(p)
		e.stats.CorruptDropped++
		return
	}
	if ts < p.firstTS {
		p.firstTS = ts
	}
	if p.got[idx] {
		e.stats.DuplicateDrops++
		return
	}
	p.got[idx] = true
	p.have++
	copy(p.buf[idx*MTU:], c)
	p.dirty = max(p.dirty, idx*MTU+len(c))
	if idx == count-1 {
		p.total = idx*MTU + n
	}
	if p.have < count {
		return
	}
	delete(e.partials, msgID)
	e.complete(msgID, p.buf[:p.total], p.firstTS, now)
	e.pools.putPartial(p)
}

// complete delivers a reassembled message, after the datagram-mode
// bookkeeping.
func (e *Endpoint) complete(msgID uint32, payload []byte, firstTS, now time.Duration) {
	if !e.opts.Reliable {
		if msgID <= uint32(e.lastDatagram) && e.lastDatagram != 0 {
			// Stale datagram message: deliver anyway (the application
			// sees arrival order) but count it.
			e.stats.DatagramsStale++
		} else {
			e.lastDatagram = uint64(msgID)
		}
		// Garbage-collect partials that can no longer complete sensibly.
		for id, pm := range e.partials {
			if id+32 < msgID {
				delete(e.partials, id)
				e.pools.putPartial(pm)
			}
		}
	}
	e.deliver(payload, uint64(msgID), now-firstTS)
}

func (e *Endpoint) deliver(payload []byte, seq uint64, latency time.Duration) {
	e.stats.MsgsDelivered++
	e.handler(payload, seq, latency)
}

func (e *Endpoint) sendAck() {
	// Cumulative ACK: everything below nextExpected has been delivered.
	ack := e.ackBuf[:]
	putHeader(ack, FrameAck, e.nextExpected-1, e.clock.Now(), 0)
	putTrailer(ack)
	e.stats.AcksSent++
	e.out.Send(ack) // netem clones
}

func (e *Endpoint) handleAck(f Frame) {
	e.stats.AcksReceived++
	acked := f.Seq
	now := e.clock.Now()
	// unacked is ordered by seq and ACKs are cumulative, so the acked
	// segments are exactly the prefix with seq <= acked.
	m := 0
	hadRtx := false
	for m < len(e.unacked) && e.unacked[m].seq <= acked {
		if e.unacked[m].rtx {
			hadRtx = true
		}
		m++
	}
	// RTT sampling: Karn's algorithm, extended to cumulative ACKs — a
	// run that includes any retransmitted segment yields no sample,
	// because the older segments in it were acknowledged late due to
	// head-of-line blocking, not network delay. Otherwise sample the
	// highest (most recently sent) segment.
	if m > 0 && !hadRtx {
		e.updateRTT(now - e.unacked[m-1].sentAt)
	}
	if m > 0 {
		newlyAcked := m
		for _, seg := range e.unacked[:m] {
			e.pools.Net.Put(seg.wire)
			e.pools.putSeg(seg)
		}
		n := copy(e.unacked, e.unacked[m:])
		clear(e.unacked[n:])
		e.unacked = e.unacked[:n]
		e.backoff = 0
		e.dupAcks = 0
		e.lastAck = acked
		if e.opts.Congestion {
			// Reno growth: exponential in slow start, additive after.
			for i := 0; i < newlyAcked; i++ {
				if e.cwnd < e.ssthresh {
					e.cwnd++
				} else {
					e.cwnd += 1 / e.cwnd
				}
			}
			if e.cwnd > float64(e.opts.Window) {
				e.cwnd = float64(e.opts.Window)
			}
		}
		e.rearmTimer()
		return
	}
	// No progress: a duplicate cumulative ACK signals that later segments
	// arrived past a hole. Three in a row trigger fast retransmit of the
	// oldest outstanding segment, as in TCP.
	if acked == e.lastAck && len(e.unacked) > 0 && e.unacked[0].seq == acked+1 {
		e.dupAcks++
		if e.dupAcks >= 3 {
			e.dupAcks = 0
			seg := e.unacked[0]
			seg.rtx = true
			e.stats.Retransmits++
			e.transmit(seg.wire, seg.zeros)
			if e.opts.Congestion {
				// Fast recovery: multiplicative decrease.
				e.ssthresh = e.cwnd / 2
				if e.ssthresh < 2 {
					e.ssthresh = 2
				}
				e.cwnd = e.ssthresh
			}
			e.rearmTimer()
		}
	} else {
		e.lastAck = acked
		e.dupAcks = 0
	}
}

func (e *Endpoint) updateRTT(sample time.Duration) {
	if sample < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) / 4
		e.srtt += (sample - e.srtt) / 8
	}
	e.rto = clampDur(e.srtt+4*e.rttvar, e.opts.RTOMin, e.opts.RTOMax)
}

// armTimer arms the owned retransmission timer. Reschedule consumes one
// clock sequence number, exactly like the fresh Schedule it replaced, so
// timer ordering — and therefore every trace — is unchanged.
func (e *Endpoint) armTimer() {
	d := e.rto << e.backoff
	if d > e.opts.RTOMax {
		d = e.opts.RTOMax
	}
	e.clock.Reschedule(e.rtxTimer, d)
}

func (e *Endpoint) rearmTimer() {
	e.clock.Cancel(e.rtxTimer)
	if len(e.unacked) > 0 {
		e.armTimer()
	}
}

func (e *Endpoint) onTimeout(now time.Duration) {
	if len(e.unacked) == 0 {
		return
	}
	// Go-back-N lite: retransmit the oldest unacked segment and back off.
	seg := e.unacked[0]
	seg.rtx = true
	e.stats.Retransmits++
	e.transmit(seg.wire, seg.zeros) // carries the original timestamp for latency accounting
	if e.opts.Congestion {
		// RTO: collapse to one segment, as Reno does.
		e.ssthresh = e.cwnd / 2
		if e.ssthresh < 2 {
			e.ssthresh = 2
		}
		e.cwnd = 1
	}
	if e.backoff < 4 {
		e.backoff++
	}
	e.armTimer()
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Conn is a connected pair of endpoints with their two netem links,
// the standard way to build a vehicle↔station channel.
type Conn struct {
	// A and B are the two endpoints (conventionally A = vehicle,
	// B = station).
	A, B *Endpoint
	// Links carries traffic A→B on Down and B→A on Up, so a fault rule
	// applied to Links hits both the sensor stream and the command
	// stream, like the paper's loopback injection.
	Links *netem.Duplex
}

// Connect builds a reliable (or datagram, per opts.Reliable) duplex
// channel between two handlers. aHandler receives messages sent by B and
// vice versa. Both endpoints and both links share opts.Pools (a fresh
// set when nil): the simulation loop is single-threaded, and an
// endpoint's received buffers recycle into its own next sends.
func Connect(clock *simclock.Clock, seed int64, opts Options, aHandler, bHandler Handler) *Conn {
	if opts.Pools == nil {
		opts.Pools = NewPools()
	}
	optsA, optsB := opts, opts
	if optsA.Name == "" {
		optsA.Name, optsB.Name = "A", "B"
	} else {
		optsA.Name += "/A"
		optsB.Name += "/B"
	}
	a := NewEndpoint(clock, optsA, aHandler)
	b := NewEndpoint(clock, optsB, bHandler)
	links := netem.NewDuplex(clock, seed, b.HandlePacket, a.HandlePacket)
	links.Down.SetBufferPool(opts.Pools.Net)
	links.Up.SetBufferPool(opts.Pools.Net)
	a.AttachLink(links.Down)
	b.AttachLink(links.Up)
	return &Conn{A: a, B: b, Links: links}
}
