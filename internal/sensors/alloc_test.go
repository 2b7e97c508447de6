//go:build !race

package sensors

import (
	"testing"

	"teledrive/internal/vehicle"
)

// TestCaptureMarshalSteadyStateAllocs pins the zero-allocation claim
// for the camera→wire path: with a warm WorldView and a reused frame
// buffer, a full capture-and-serialize cycle allocates nothing. Skipped
// under the race detector, whose instrumentation perturbs allocation
// counts.
func TestCaptureMarshalSteadyStateAllocs(t *testing.T) {
	w, ego := testWorld(t)
	spawnCarAt(t, w, 40)
	spawnCarAt(t, w, 90)
	cam := NewCamera(w, ego)
	ego.Plant.Apply(vehicle.Control{Throttle: 0.3})

	var view WorldView
	var frames FrameBuffer
	for i := 0; i < 20; i++ { // warm buffers
		w.Step(0.02)
		cam.CaptureInto(&view)
		frames.Keyframe(1, view)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.Step(0.02)
		cam.CaptureInto(&view)
		frames.Keyframe(1, view)
	})
	if allocs != 0 {
		t.Fatalf("capture+marshal allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
