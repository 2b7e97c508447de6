//go:build !race

package transport

import (
	"bytes"
	"io"
	"testing"
)

// TestStreamAllocs pins the framed stream's steady state at zero
// allocations per message: framing a delta-sized message and decoding
// one. The race detector instruments allocations, hence !race.
func TestStreamAllocs(t *testing.T) {
	body := bytes.Repeat([]byte{0x3c}, 6<<10)

	sw := NewStreamWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := sw.WriteMsg(5, 0x01, body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteMsg allocates %v objects per message, want 0", n)
	}

	var stream bytes.Buffer
	src := NewStreamWriter(&stream)
	for range 200 {
		if err := src.WriteMsg(5, 0x01, body); err != nil {
			t.Fatal(err)
		}
	}
	sr := NewStreamReader(&stream)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sr.ReadMsg(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadMsg allocates %v objects per message, want 0", n)
	}
}
