package sensors

import (
	"bytes"
	"math/rand"
	"testing"

	"teledrive/internal/world"
)

// TestFrameBufferMatchesReferenceEncoders pins the zero-fill contract the
// decoders cannot see (they check only the fill's length): over a random
// sequence of keyframes and deltas with changing actor counts and fills,
// every FrameBuffer output is the kind byte followed by exactly the
// allocating encoder's bytes, and every byte past the mark stays zero.
func TestFrameBufferMatchesReferenceEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	randomView := func(frame uint64) WorldView {
		v := WorldView{
			Frame:     frame,
			VideoFill: []int{0, 1, 96, 6000, 24000, -3}[rng.Intn(6)],
			Ego:       deltaTestActor(1, world.KindEgo, rng.Float64()*100, rng.Float64()),
		}
		for i := rng.Intn(12); i > 0; i-- {
			v.Others = append(v.Others, deltaTestActor(world.ActorID(2+rng.Intn(16)), world.KindCar, rng.Float64()*100, 2))
		}
		return v
	}
	var b FrameBuffer
	base := randomView(0)
	for frame := uint64(1); frame <= 400; frame++ {
		v := randomView(frame)
		var got, want []byte
		if rng.Intn(3) == 0 {
			got, want = b.Keyframe(0x01, v), MarshalWorldView(v)
		} else {
			fill := []int{0, 600, 6000, -1}[rng.Intn(4)]
			got, want = b.Delta(0x02, base, v, fill), MarshalWorldViewDelta(base, v, fill)
		}
		if !bytes.Equal(got[1:], want) || (got[0] != 0x01 && got[0] != 0x02) {
			t.Fatalf("frame %d: FrameBuffer bytes differ from the reference encoder", frame)
		}
		if len(b.buf) != cap(b.buf) || b.mark > len(got) {
			t.Fatalf("frame %d: mark %d past the %d-byte frame (buffer %d/%d)", frame, b.mark, len(got), len(b.buf), cap(b.buf))
		}
		for i, c := range b.buf[b.mark:] {
			if c != 0 {
				t.Fatalf("frame %d: non-zero byte %d past the mark %d", frame, b.mark+i, b.mark)
			}
		}
		base = v
	}
}
