// Package transport implements the wire layer between the vehicle
// subsystem and the operator station: a binary frame codec with CRC-32
// integrity, plus a reliable in-order message channel (a miniature TCP)
// and an unreliable datagram mode, both running over netem links.
//
// The paper's CARLA deployment talks TCP over loopback; its observed
// packet-loss symptom — "certain frames being skipped" — is the
// head-of-line blocking stall of a reliable stream. Endpoint reproduces
// that: lost segments trigger an RTO, delivery halts until the
// retransmission lands, then buffered messages burst out.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// FrameType discriminates wire frames.
type FrameType uint8

const (
	// FrameData carries one application message with a sequence number.
	FrameData FrameType = iota + 1
	// FrameAck carries a cumulative acknowledgement.
	FrameAck
	// FrameDatagram carries an unacknowledged, unordered message.
	FrameDatagram
)

// String returns a short name for logs.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "DATA"
	case FrameAck:
		return "ACK"
	case FrameDatagram:
		return "DGRAM"
	default:
		return fmt.Sprintf("FRAME(%d)", uint8(t))
	}
}

// Frame is one unit on the wire.
type Frame struct {
	Type FrameType
	// Seq is the message sequence for FrameData/FrameDatagram, or the
	// cumulative acknowledged sequence for FrameAck.
	Seq uint64
	// Timestamp is the sender's simulated send time; receivers use it
	// for latency accounting.
	Timestamp time.Duration
	Payload   []byte
}

const (
	frameMagic    = 0x7D5A // arbitrary constant marking a teledrive frame
	headerLen     = 2 + 1 + 8 + 8 + 4
	trailerLen    = 4 // CRC-32 over header+payload
	frameOverhead = headerLen + trailerLen
	// MaxPayload bounds a frame payload; larger messages are a caller bug.
	MaxPayload = 1 << 20
)

// Codec errors. ErrCorruptFrame covers CRC mismatches and bad magic —
// receivers treat such frames exactly like lost packets.
var (
	ErrCorruptFrame  = errors.New("transport: corrupt frame")
	ErrShortFrame    = errors.New("transport: short frame")
	ErrPayloadTooBig = errors.New("transport: payload exceeds MaxPayload")
)

// EncodeFrame serializes f. The layout is
//
//	magic(2) type(1) seq(8) timestamp(8) payloadLen(4) payload CRC32C(4)
//
// with all integers big-endian.
func EncodeFrame(f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrPayloadTooBig, len(f.Payload))
	}
	buf := make([]byte, headerLen+len(f.Payload)+trailerLen)
	putHeader(buf, f.Type, f.Seq, f.Timestamp, len(f.Payload))
	copy(buf[headerLen:], f.Payload)
	putTrailer(buf)
	return buf, nil
}

// putHeader writes the frame header for a plen-byte payload into buf.
func putHeader(buf []byte, typ FrameType, seq uint64, ts time.Duration, plen int) {
	binary.BigEndian.PutUint16(buf[0:2], frameMagic)
	buf[2] = uint8(typ)
	binary.BigEndian.PutUint64(buf[3:11], seq)
	binary.BigEndian.PutUint64(buf[11:19], uint64(ts))
	binary.BigEndian.PutUint32(buf[19:23], uint32(plen))
}

// putTrailer writes the CRC of everything before the trailer into the
// last trailerLen bytes of a complete frame buffer.
func putTrailer(buf []byte) {
	body := len(buf) - trailerLen
	binary.BigEndian.PutUint32(buf[body:], checksum(buf[:body]))
}

// DecodeFrame parses a wire buffer produced by EncodeFrame. The returned
// payload aliases buf.
func DecodeFrame(buf []byte) (Frame, error) { return decodeFrame(buf, 0) }

// decodeFrame parses a frame whose body ends in zeros zero bytes that
// buf leaves out: the frame's bytes are buf's body, then the zeros, then
// buf's trailer. The returned payload aliases buf and stops before the
// zeros.
func decodeFrame(buf []byte, zeros int) (Frame, error) {
	if len(buf) < frameOverhead {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	if binary.BigEndian.Uint16(buf[0:2]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic", ErrCorruptFrame)
	}
	plen := binary.BigEndian.Uint32(buf[19:23])
	body := len(buf) - trailerLen
	if plen > MaxPayload || int(plen) != body+zeros-headerLen {
		return Frame{}, fmt.Errorf("%w: bad length %d for %d-byte frame", ErrCorruptFrame, plen, len(buf)+zeros)
	}
	var sum uint32
	if zeros > 0 {
		sum = checksumZeros(buf[:body], zeros)
	} else {
		sum = checksum(buf[:body])
	}
	if sum != binary.BigEndian.Uint32(buf[body:]) {
		return Frame{}, fmt.Errorf("%w: crc mismatch", ErrCorruptFrame)
	}
	return Frame{
		Type:      FrameType(buf[2]),
		Seq:       binary.BigEndian.Uint64(buf[3:11]),
		Timestamp: time.Duration(binary.BigEndian.Uint64(buf[11:19])),
		Payload:   buf[headerLen:body],
	}, nil
}
