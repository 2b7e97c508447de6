package sensors

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/world"
)

func deltaTestActor(id world.ActorID, kind world.ActorKind, x, y float64) ActorView {
	return ActorView{
		ID: id, Kind: kind,
		Pose:  geom.Pose{Pos: geom.V(x, y), Yaw: 0.3},
		Speed: 12.5, Steer: -0.1,
		Extent: geom.V(2.4, 1.1),
	}
}

func deltaTestBase() WorldView {
	return WorldView{
		Frame: 100, SimTime: 3600 * time.Millisecond, VideoFill: 24000,
		Ego: deltaTestActor(1, world.KindCar, 10, 20),
		Others: []ActorView{
			deltaTestActor(2, world.KindCar, 30, 20),
			deltaTestActor(3, world.KindCyclist, 15, 22),
			deltaTestActor(4, world.KindParkedCar, 50, 18),
		},
	}
}

// roundTrip encodes v against base, applies the delta, and requires the
// reconstruction's full marshal to be byte-identical to v's.
func roundTrip(t *testing.T, base, v WorldView, deltaFill int) []byte {
	t.Helper()
	delta := MarshalWorldViewDelta(base, v, deltaFill)
	var got WorldView
	if err := ApplyWorldViewDelta(&got, base, delta); err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := MarshalWorldView(v)
	have := MarshalWorldView(got)
	if !bytes.Equal(have, want) {
		t.Fatalf("reconstruction differs from full marshal\n want %d bytes\n have %d bytes", len(want), len(have))
	}
	return delta
}

func TestDeltaRoundTripSteadyState(t *testing.T) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	v.SimTime += 36 * time.Millisecond
	v.Ego.Pose.Pos.X += 0.45
	v.Ego.Speed = 12.9
	v.Others[0].Pose.Pos.X += 0.4
	v.Others[1].Pose.Yaw += 0.01
	// Others[2] (parked) unchanged: its diff entry is 3 bytes.

	delta := roundTrip(t, base, v, 600)
	full := MarshalWorldView(v)
	if len(delta) >= len(full) {
		t.Fatalf("steady-state delta (%d bytes) not smaller than full frame (%d bytes)", len(delta), len(full))
	}
}

func TestDeltaRoundTripStructuralChanges(t *testing.T) {
	base := deltaTestBase()

	t.Run("actor-added", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Others = append(v.Others, deltaTestActor(9, world.KindCyclist, 60, 21))
		roundTrip(t, base, v, 600)
	})
	t.Run("actor-removed", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Others = v.Others[:1]
		roundTrip(t, base, v, 600)
	})
	t.Run("reordered", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Others[0], v.Others[2] = v.Others[2], v.Others[0]
		roundTrip(t, base, v, 600)
	})
	t.Run("ego-replaced", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Ego = deltaTestActor(7, world.KindCar, 0, 0)
		roundTrip(t, base, v, 600)
	})
	t.Run("kind-changed", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Others[1].Kind = world.KindCar
		roundTrip(t, base, v, 600)
	})
	t.Run("empty-others", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		v.Others = nil
		roundTrip(t, base, v, 0)
	})
	t.Run("negative-zero-bitexact", func(t *testing.T) {
		v := deltaTestBase()
		v.Frame = 101
		base2 := deltaTestBase()
		base2.Ego.Steer = 0.0
		v.Ego.Steer = math.Copysign(0, -1)
		roundTrip(t, base2, v, 600)
	})
}

func TestDeltaBaseMismatch(t *testing.T) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	delta := MarshalWorldViewDelta(base, v, 100)

	wrong := deltaTestBase()
	wrong.Frame = 99
	var got WorldView
	err := ApplyWorldViewDelta(&got, wrong, delta)
	if !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("want ErrDeltaBaseMismatch, got %v", err)
	}
	if errors.Is(err, ErrBadWorldViewDelta) {
		t.Fatalf("mismatch must be distinct from structural corruption: %v", err)
	}
}

func TestDeltaStructuralErrors(t *testing.T) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	good := MarshalWorldViewDelta(base, v, 50)

	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:10],
		"truncated": good[:len(good)-60],
	}
	// Corrupt the actor count upward: entries run past the limit.
	bad := bytes.Clone(good)
	bad[32], bad[33] = 0x00, 0xFF
	cases["count-overflow"] = bad
	// Base index beyond base.Others.
	bad2 := bytes.Clone(good)
	bad2[deltaHeaderWireLen+1+1] = 0x03 // first others entry idx hi byte
	cases["bad-base-index"] = bad2

	for name, buf := range cases {
		var got WorldView
		if err := ApplyWorldViewDelta(&got, base, buf); !errors.Is(err, ErrBadWorldViewDelta) {
			t.Errorf("%s: want ErrBadWorldViewDelta, got %v", name, err)
		}
	}
}

// TestDeltaDecodeReuse pins the allocation-free property of the station
// decode path: applying into a warm view must not allocate.
func TestDeltaDecodeReuse(t *testing.T) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	v.Ego.Pose.Pos.X += 0.5
	delta := MarshalWorldViewDelta(base, v, 600)

	var got WorldView
	if err := ApplyWorldViewDelta(&got, base, delta); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ApplyWorldViewDelta(&got, base, delta); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm delta decode allocates %.1f/op, want 0", allocs)
	}
}

// TestDeltaEncodeReuse pins the sender side: encoding into a
// warm FrameBuffer must not allocate.
func TestDeltaEncodeReuse(t *testing.T) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	var frames FrameBuffer
	frames.Delta(2, base, v, 600)
	allocs := testing.AllocsPerRun(100, func() {
		frames.Delta(2, base, v, 600)
	})
	if allocs != 0 {
		t.Fatalf("warm delta encode allocates %.1f/op, want 0", allocs)
	}
}

// FuzzApplyWorldViewDelta hammers the decoder with hostile buffers: it
// must never panic, and whatever it accepts must re-marshal within
// bounds.
func FuzzApplyWorldViewDelta(f *testing.F) {
	base := deltaTestBase()
	v := deltaTestBase()
	v.Frame = 101
	v.Ego.Pose.Pos.X += 1
	v.Others = append(v.Others[:2], deltaTestActor(9, world.KindCyclist, 60, 21))
	f.Add(MarshalWorldViewDelta(base, v, 200))
	f.Add(MarshalWorldViewDelta(base, base, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got WorldView
		if err := ApplyWorldViewDelta(&got, base, data); err != nil {
			return
		}
		if len(got.Others) > maxWireActors || got.VideoFill > maxVideoFill {
			t.Fatalf("accepted out-of-bounds view: %d actors, %d fill", len(got.Others), got.VideoFill)
		}
		// An accepted delta must survive a full-frame round trip.
		full := MarshalWorldView(got)
		var again WorldView
		if err := UnmarshalWorldViewInto(&again, full); err != nil {
			t.Fatalf("re-marshal of accepted delta rejected: %v", err)
		}
	})
}
