//go:build !race

package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"teledrive/internal/simclock"
)

// TestEncodeFrameAllocs pins EncodeFrame's growth: the output buffer
// is sized once, so EncodeFrame allocates at most one object at every
// payload size, from a control message to a full payload.
// The race detector instruments allocations, hence !race.
func TestEncodeFrameAllocs(t *testing.T) {
	for _, size := range []int{0, 30, 6 << 10, 24 << 10, 256 << 10, MaxPayload} {
		f := Frame{Type: FrameData, Seq: 9, Payload: bytes.Repeat([]byte{0xa5}, size)}
		n := testing.AllocsPerRun(20, func() {
			if _, err := EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("EncodeFrame of a %d-byte payload allocates %v objects, want <= 1", size, n)
		}
	}
}

// TestTransportSteadyStateAllocs pins the one-copy byte path: once the
// pools are warm, a reliable 24 kB message through Connect — encoded
// into pooled segment frames, cloned by netem, reassembled in place,
// delivered and acknowledged — allocates nothing.
func TestTransportSteadyStateAllocs(t *testing.T) {
	clk := simclock.New()
	delivered := 0
	conn := Connect(clk, 1, Options{Reliable: true},
		func([]byte, uint64, time.Duration) {},
		func(p []byte, _ uint64, _ time.Duration) { delivered += len(p) })
	msg := make([]byte, 24<<10)
	msg[0] = 1
	roundTrip := func() {
		if err := conn.A.Send(msg); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	n := testing.AllocsPerRun(100, roundTrip)
	if n != 0 {
		t.Errorf("steady-state 24 kB reliable round trip allocates %v objects per message, want 0", n)
	}
	if conn.A.InFlight() != 0 || delivered != 121*len(msg) {
		t.Fatalf("in flight %d, delivered %d bytes, want 0 and %d", conn.A.InFlight(), delivered, 121*len(msg))
	}
}

// TestWindowFullRejectAllocs: a Send that a full window rejects — fixed
// window or congestion window — returns the bare ErrWindowFull and
// allocates nothing; the bridge drops frames on that path under every
// sustained fault.
func TestWindowFullRejectAllocs(t *testing.T) {
	for _, congestion := range []bool{false, true} {
		clk := simclock.New()
		conn := Connect(clk, 1, Options{Reliable: true, Window: 4, Congestion: congestion},
			func([]byte, uint64, time.Duration) {}, func([]byte, uint64, time.Duration) {})
		if err := conn.A.SendFill(nil, 4*MTU); err != nil {
			t.Fatal(err)
		}
		head := []byte("frame head")
		n := testing.AllocsPerRun(100, func() {
			if err := conn.A.SendFill(head, 24<<10); !errors.Is(err, ErrWindowFull) {
				t.Fatalf("congestion=%v: err = %v, want ErrWindowFull", congestion, err)
			}
		})
		if n != 0 {
			t.Errorf("congestion=%v: a rejected Send allocates %v objects, want 0", congestion, n)
		}
	}
}
