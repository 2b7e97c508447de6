//go:build !race

package hub

import (
	"net"
	"testing"

	"teledrive/internal/vehicle"
)

// TestHubWireAllocs pins a station's control send over a real socket at
// zero allocations per control; TestStreamAllocs in transport pins the
// framing under it. The race detector instruments allocations, hence
// !race.
func TestHubWireAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(c)
	defer st.Close()
	ss := &StationSession{st: st, ID: 1, done: make(chan struct{})}
	ctrl := vehicle.Control{Throttle: 0.4, Steer: -0.1}
	if n := testing.AllocsPerRun(200, func() {
		if err := ss.SendControl(ctrl); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SendControl allocates %v objects per control, want 0", n)
	}
}
