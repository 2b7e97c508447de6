//go:build !race

package bridge

import (
	"errors"
	"testing"

	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
)

// TestDroppedControlAllocs: a command the full uplink window rejects
// is counted and returned as the bare transport.ErrWindowFull,
// allocating nothing; the session's station loop drops commands on
// that path under every sustained fault. The race detector instruments
// allocations, hence !race.
func TestDroppedControlAllocs(t *testing.T) {
	_, sess, _, _ := testSession(t)
	for sess.Client.SendControl(vehicle.Control{}) == nil {
	}
	n := testing.AllocsPerRun(100, func() {
		if err := sess.Client.SendControl(vehicle.Control{Throttle: 0.5}); !errors.Is(err, transport.ErrWindowFull) {
			t.Fatalf("err = %v, want ErrWindowFull", err)
		}
	})
	if n != 0 {
		t.Errorf("a dropped control allocates %v objects, want 0", n)
	}
}
