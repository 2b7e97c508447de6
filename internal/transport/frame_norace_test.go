//go:build !race

package transport

import (
	"bytes"
	"testing"
)

// TestEncodeFrameAllocs pins EncodeFrameAppend's growth: the output
// buffer is sized once, so EncodeFrame allocates at most one object at
// every payload size, from a control message to a campaignd chunk.
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
