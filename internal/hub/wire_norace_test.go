//go:build !race

package hub

import (
	"bytes"
	"io"
	"net"
	"testing"

	"teledrive/internal/vehicle"
)

// TestHubWireAllocs pins the served wire's steady state at zero
// allocations per message: framing a delta-sized message, decoding one,
// and a station's control send over a real socket. The race detector
// instruments allocations, hence !race.
func TestHubWireAllocs(t *testing.T) {
	body := bytes.Repeat([]byte{0x3c}, 6<<10)

	ww := newWireWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := ww.writeMsg(5, kindBridge, body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writeMsg allocates %v objects per message, want 0", n)
	}

	var stream bytes.Buffer
	sw := newWireWriter(&stream)
	for range 200 {
		if err := sw.writeMsg(5, kindBridge, body); err != nil {
			t.Fatal(err)
		}
	}
	wr := newWireReader(&stream)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := wr.readMsg(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("readMsg allocates %v objects per message, want 0", n)
	}

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
