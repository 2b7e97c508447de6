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
// every FrameBuffer head followed by its fill in zeros is the kind byte
// followed by exactly the allocating encoder's bytes.
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
		var head, want []byte
		var fill int
		if rng.Intn(3) == 0 {
			head, fill = b.Keyframe(0x01, v)
			want = MarshalWorldView(v)
		} else {
			deltaFill := []int{0, 600, 6000, -1}[rng.Intn(4)]
			head, fill = b.Delta(0x02, base, v, deltaFill)
			want = MarshalWorldViewDelta(base, v, deltaFill)
		}
		got := append(bytes.Clone(head), make([]byte, fill)...)
		if !bytes.Equal(got[1:], want) || (got[0] != 0x01 && got[0] != 0x02) {
			t.Fatalf("frame %d: FrameBuffer bytes differ from the reference encoder", frame)
		}
		base = v
	}
}
