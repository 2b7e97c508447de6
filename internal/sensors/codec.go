package sensors

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/world"
)

// Wire layout (big-endian):
//
//	WorldView: frame(8) simTime(8) count(2) videoLen(4) ego(actor)
//	           others(actor)*count video-fill(videoLen)
//	actor:     id(4) kind(1) x(8) y(8) yaw(8) speed(8) steer(8) extX(8) extY(8)
const (
	actorWireLen  = 4 + 1 + 7*8
	headerWireLen = 8 + 8 + 2 + 4
	// maxWireActors bounds the decoded actor count against corrupted or
	// hostile inputs.
	maxWireActors = 1024
	// maxVideoFill bounds the synthetic video payload (16 MiB).
	maxVideoFill = 16 << 20
)

// ErrBadWorldView is returned when a buffer cannot be decoded as a
// world view.
var ErrBadWorldView = errors.New("sensors: malformed world view")

// MarshalWorldView serializes a world view for transmission over the
// bridge. It is the allocating reference encoder; the send path uses
// FrameBuffer.Keyframe, which produces the same bytes.
func MarshalWorldView(v WorldView) []byte {
	buf := make([]byte, WorldViewWireSize(v))
	putWorldViewHead(buf, v)
	return buf
}

// putWorldViewHead writes the header and actor records of v's wire form
// into buf and returns their length. The video fill after them is left
// alone: it must already be zero.
func putWorldViewHead(buf []byte, v WorldView) int {
	binary.BigEndian.PutUint64(buf[0:8], v.Frame)
	binary.BigEndian.PutUint64(buf[8:16], uint64(v.SimTime))
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(v.Others)))
	binary.BigEndian.PutUint32(buf[18:22], uint32(max(v.VideoFill, 0)))
	off := headerWireLen
	off = putActor(buf, off, v.Ego)
	for _, a := range v.Others {
		off = putActor(buf, off, a)
	}
	return off
}

// UnmarshalWorldView decodes a buffer produced by MarshalWorldView.
func UnmarshalWorldView(buf []byte) (WorldView, error) {
	var v WorldView
	if err := UnmarshalWorldViewInto(&v, buf); err != nil {
		return WorldView{}, err
	}
	return v, nil
}

// UnmarshalWorldViewInto decodes into v, reusing v.Others' backing
// array — the allocation-free path for the per-frame decode on the
// operator station. All validation happens before any write, so on
// error v is left exactly as passed (its backing stays reusable).
func UnmarshalWorldViewInto(v *WorldView, buf []byte) error {
	if len(buf) < headerWireLen+actorWireLen {
		return fmt.Errorf("%w: %d bytes", ErrBadWorldView, len(buf))
	}
	count := int(binary.BigEndian.Uint16(buf[16:18]))
	if count > maxWireActors {
		return fmt.Errorf("%w: %d actors", ErrBadWorldView, count)
	}
	fill := int(binary.BigEndian.Uint32(buf[18:22]))
	if fill < 0 || fill > maxVideoFill {
		return fmt.Errorf("%w: video fill %d", ErrBadWorldView, fill)
	}
	want := headerWireLen + actorWireLen*(1+count) + fill
	if len(buf) != want {
		return fmt.Errorf("%w: length %d, want %d for %d actors", ErrBadWorldView, len(buf), want, count)
	}
	others := v.Others[:0]
	*v = WorldView{
		Frame:     binary.BigEndian.Uint64(buf[0:8]),
		SimTime:   time.Duration(binary.BigEndian.Uint64(buf[8:16])),
		VideoFill: fill,
	}
	off := headerWireLen
	v.Ego, off = getActor(buf, off)
	for i := 0; i < count; i++ {
		var a ActorView
		a, off = getActor(buf, off)
		others = append(others, a)
	}
	// Unconditional, so a zero-actor frame keeps (not leaks) the reused
	// backing; nil stays nil, so UnmarshalWorldView is unchanged.
	v.Others = others
	return nil
}

func putActor(buf []byte, off int, a ActorView) int {
	binary.BigEndian.PutUint32(buf[off:], uint32(a.ID))
	buf[off+4] = byte(a.Kind)
	off += 5
	for _, f := range [...]float64{a.Pose.Pos.X, a.Pose.Pos.Y, a.Pose.Yaw, a.Speed, a.Steer, a.Extent.X, a.Extent.Y} {
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(f))
		off += 8
	}
	return off
}

func getActor(buf []byte, off int) (ActorView, int) {
	a := ActorView{
		ID:   world.ActorID(binary.BigEndian.Uint32(buf[off:])),
		Kind: world.ActorKind(buf[off+4]),
	}
	off += 5
	var fs [7]float64
	for i := range fs {
		fs[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	a.Pose = geom.Pose{Pos: geom.V(fs[0], fs[1]), Yaw: fs[2]}
	a.Speed, a.Steer = fs[3], fs[4]
	a.Extent = geom.V(fs[5], fs[6])
	return a, off
}
