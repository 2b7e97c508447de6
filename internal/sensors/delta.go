package sensors

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"teledrive/internal/world"
)

// Delta wire layout (big-endian) — the keyframe+diff world-view codec
// for steady-state camera streaming (DESIGN.md §14). A delta encodes v
// relative to a base view both peers already hold; reconstruction is
// byte-identical to MarshalWorldView(v), which the canonical-cell
// property test pins for every tick of every fingerprint cell.
//
//	delta:  baseFrame(8) frame(8) simTime(8) videoFill(4) deltaFill(4)
//	        count(2) ego-entry others-entry*count fill(deltaFill)
//	ego:    0x01 actor(61)            — full record (ego identity changed)
//	        0x00 mask(1) fields       — diff against base.Ego
//	others: 0xFF actor(61)            — ADD: not present in base
//	        idxHi(1) idxLo(1) mask(1) fields
//	                                  — diff against base.Others[idx]
//	fields: kind(1) if mask bit0, then one float64(8) per set bit 1..7
//	        in bit order: x y yaw speed steer extX extY
//
// The idx high byte can never be 0xFF (maxWireActors is 1024), so the
// ADD tag is unambiguous. videoFill is the reconstructed view's
// synthetic video size; deltaFill is the (smaller) residual actually
// shipped, appended as zeros like the full-frame fill.
const (
	deltaHeaderWireLen = 8 + 8 + 8 + 4 + 4 + 2

	deltaTagAdd = 0xFF
	egoTagDiff  = 0x00
	egoTagFull  = 0x01
)

// DefaultVideoDeltaBytes models the residual an inter-coded (P-frame)
// video encoder ships when consecutive frames mostly agree — roughly a
// quarter of the intra-coded DefaultVideoFrameBytes.
const DefaultVideoDeltaBytes = 6000

// ErrBadWorldViewDelta reports a structurally malformed delta buffer.
var ErrBadWorldViewDelta = errors.New("sensors: malformed world-view delta")

// ErrDeltaBaseMismatch reports a structurally valid delta whose base
// frame is not the view the receiver holds — the resync signal: the
// receiver lost a frame of the chain and must request a keyframe.
var ErrDeltaBaseMismatch = errors.New("sensors: delta base mismatch")

// WorldViewWireSize returns len(MarshalWorldView(v)) without
// marshalling — the sender uses it to fall back to a keyframe when a
// delta would not beat the full frame.
func WorldViewWireSize(v WorldView) int {
	fill := v.VideoFill
	if fill < 0 {
		fill = 0
	}
	return headerWireLen + actorWireLen*(1+len(v.Others)) + fill
}

// MarshalWorldViewDelta serializes v as a diff against base. deltaFill
// is the synthetic video residual to append (zeros). Any base works — an
// actor absent from base is carried in full — but the output only
// shrinks when base is the previous tick's view. It is the allocating
// reference encoder; the send path uses FrameBuffer.Delta, which
// produces the same bytes.
func MarshalWorldViewDelta(base, v WorldView, deltaFill int) []byte {
	dst := appendWorldViewDeltaHead(nil, base, v, deltaFill)
	return append(dst, make([]byte, max(deltaFill, 0))...)
}

// appendWorldViewDeltaHead appends the delta wire form of v relative to
// base, up to but excluding the zero fill.
func appendWorldViewDeltaHead(dst []byte, base, v WorldView, deltaFill int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, base.Frame)
	dst = binary.BigEndian.AppendUint64(dst, v.Frame)
	dst = binary.BigEndian.AppendUint64(dst, uint64(v.SimTime))
	dst = binary.BigEndian.AppendUint32(dst, uint32(max(v.VideoFill, 0)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(max(deltaFill, 0)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Others)))
	if v.Ego.ID != base.Ego.ID {
		dst = append(dst, egoTagFull)
		dst = appendActor(dst, v.Ego)
	} else {
		dst = append(dst, egoTagDiff)
		dst = appendActorDiff(dst, base.Ego, v.Ego)
	}
	for _, a := range v.Others {
		idx := -1
		for i := range base.Others {
			if base.Others[i].ID == a.ID {
				idx = i
				break
			}
		}
		if idx < 0 || idx >= deltaTagAdd<<8 {
			dst = append(dst, deltaTagAdd)
			dst = appendActor(dst, a)
			continue
		}
		dst = append(dst, byte(idx>>8), byte(idx))
		dst = appendActorDiff(dst, base.Others[idx], a)
	}
	return dst
}

// ApplyWorldViewDelta reconstructs the view a delta encodes into v,
// reusing v.Others' backing array (the allocation-free station decode
// path). v must not alias base — the station's display/decode double
// buffer satisfies this naturally. A base-frame mismatch is reported
// before anything is written; on a structural error v's contents are
// unspecified but its backing stays reusable (the caller discards the
// decode target either way).
func ApplyWorldViewDelta(v *WorldView, base WorldView, buf []byte) error {
	if len(buf) < deltaHeaderWireLen+1 {
		return fmt.Errorf("%w: %d bytes", ErrBadWorldViewDelta, len(buf))
	}
	baseFrame := binary.BigEndian.Uint64(buf[0:8])
	frame := binary.BigEndian.Uint64(buf[8:16])
	simTime := time.Duration(binary.BigEndian.Uint64(buf[16:24]))
	vfill := int(binary.BigEndian.Uint32(buf[24:28]))
	dfill := int(binary.BigEndian.Uint32(buf[28:32]))
	count := int(binary.BigEndian.Uint16(buf[32:34]))
	if count > maxWireActors {
		return fmt.Errorf("%w: %d actors", ErrBadWorldViewDelta, count)
	}
	if vfill > maxVideoFill || dfill > maxVideoFill {
		return fmt.Errorf("%w: video fill %d/%d", ErrBadWorldViewDelta, vfill, dfill)
	}
	limit := len(buf) - dfill
	if limit < deltaHeaderWireLen+1 {
		return fmt.Errorf("%w: fill %d exceeds buffer", ErrBadWorldViewDelta, dfill)
	}
	if baseFrame != base.Frame {
		return fmt.Errorf("%w: delta base %d, holding %d", ErrDeltaBaseMismatch, baseFrame, base.Frame)
	}

	off := deltaHeaderWireLen
	var ego ActorView
	switch buf[off] {
	case egoTagFull:
		off++
		if off+actorWireLen > limit {
			return fmt.Errorf("%w: truncated ego", ErrBadWorldViewDelta)
		}
		ego, off = getActor(buf, off)
	case egoTagDiff:
		var err error
		ego, off, err = readActorDiff(buf, off+1, limit, base.Ego)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: ego tag %#x", ErrBadWorldViewDelta, buf[off])
	}

	others := v.Others[:0]
	for i := 0; i < count; i++ {
		if off >= limit {
			return fmt.Errorf("%w: truncated at actor %d", ErrBadWorldViewDelta, i)
		}
		tag := buf[off]
		if tag == deltaTagAdd {
			off++
			if off+actorWireLen > limit {
				return fmt.Errorf("%w: truncated add at actor %d", ErrBadWorldViewDelta, i)
			}
			var a ActorView
			a, off = getActor(buf, off)
			others = append(others, a)
			continue
		}
		if off+2 > limit {
			return fmt.Errorf("%w: truncated ref at actor %d", ErrBadWorldViewDelta, i)
		}
		idx := int(tag)<<8 | int(buf[off+1])
		if idx >= len(base.Others) {
			return fmt.Errorf("%w: base index %d of %d", ErrBadWorldViewDelta, idx, len(base.Others))
		}
		a, noff, err := readActorDiff(buf, off+2, limit, base.Others[idx])
		if err != nil {
			return err
		}
		others = append(others, a)
		off = noff
	}
	if off != limit {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadWorldViewDelta, limit-off)
	}

	v.Frame = frame
	v.SimTime = simTime
	v.VideoFill = vfill
	v.Ego = ego
	v.Others = others
	return nil
}

func appendActor(dst []byte, a ActorView) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.ID))
	dst = append(dst, byte(a.Kind))
	fs := actorFloats(a)
	for _, f := range fs {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// appendActorDiff emits mask+fields for the bit-level differences
// between base and a (same ID). Fields compare as IEEE-754 bit
// patterns, not values: -0 vs +0 or differing NaN payloads must survive
// the round trip for reconstruction to be byte-identical.
func appendActorDiff(dst []byte, base, a ActorView) []byte {
	var mask byte
	if a.Kind != base.Kind {
		mask |= 1
	}
	bf, af := actorFloats(base), actorFloats(a)
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			mask |= 1 << (i + 1)
		}
	}
	dst = append(dst, mask)
	if mask&1 != 0 {
		dst = append(dst, byte(a.Kind))
	}
	for i := range af {
		if mask&(1<<(i+1)) != 0 {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(af[i]))
		}
	}
	return dst
}

func readActorDiff(buf []byte, off, limit int, base ActorView) (ActorView, int, error) {
	if off >= limit {
		return ActorView{}, 0, fmt.Errorf("%w: truncated diff mask", ErrBadWorldViewDelta)
	}
	mask := buf[off]
	off++
	a := base
	if mask&1 != 0 {
		if off >= limit {
			return ActorView{}, 0, fmt.Errorf("%w: truncated diff kind", ErrBadWorldViewDelta)
		}
		a.Kind = world.ActorKind(buf[off])
		off++
	}
	fs := actorFloats(base)
	for i := range fs {
		if mask&(1<<(i+1)) != 0 {
			if off+8 > limit {
				return ActorView{}, 0, fmt.Errorf("%w: truncated diff field", ErrBadWorldViewDelta)
			}
			fs[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	setActorFloats(&a, fs)
	return a, off, nil
}

// actorFloats / setActorFloats fix the field order shared by the diff
// mask bits 1..7 and the full-record codec in codec.go.
func actorFloats(a ActorView) [7]float64 {
	return [7]float64{a.Pose.Pos.X, a.Pose.Pos.Y, a.Pose.Yaw, a.Speed, a.Steer, a.Extent.X, a.Extent.Y}
}

func setActorFloats(a *ActorView, fs [7]float64) {
	a.Pose.Pos.X, a.Pose.Pos.Y, a.Pose.Yaw = fs[0], fs[1], fs[2]
	a.Speed, a.Steer = fs[3], fs[4]
	a.Extent.X, a.Extent.Y = fs[5], fs[6]
}
