package hub

import (
	"bytes"
	"io"
	"testing"
)

// FuzzHubWire treats the hub stream as hostile territory: whatever
// bytes arrive, readMsg must return messages or errors, never panic,
// and well-formed frames it wrote itself must round-trip.
func FuzzHubWire(f *testing.F) {
	// Seed with genuine traffic of every kind.
	var buf bytes.Buffer
	ww := newWireWriter(&buf)
	for _, m := range []struct {
		session uint64
		kind    byte
		body    []byte
	}{
		{0, kindJoin, []byte(`{"scenario":"training","seed":7}`)},
		{1, kindJoined, []byte(`{"session_id":1,"scenario":"training"}`)},
		{1, kindBridge, []byte{0x01, 0xde, 0xad}},
		{1, kindLeave, nil},
		{1, kindEnd, []byte(`{"session_id":1,"reason":"completed"}`)},
		{0, kindError, []byte(`{"error":"boom"}`)},
	} {
		if err := ww.writeMsg(m.session, m.kind, m.body); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(buf.Bytes()[:7]) // truncated mid-frame

	f.Fuzz(func(t *testing.T, data []byte) {
		r := newWireReader(bytes.NewReader(data))
		for {
			m, err := r.readMsg()
			if err != nil {
				if isEOF(err) && err != io.EOF {
					t.Fatalf("EOF-ish error that is not io.EOF: %v", err)
				}
				return
			}
			// A decoded message must round-trip bit-identically.
			var out bytes.Buffer
			if err := newWireWriter(&out).writeMsg(m.Session, m.Kind, m.Body); err != nil {
				t.Fatalf("re-encode of decoded message failed: %v", err)
			}
			back, err := newWireReader(&out).readMsg()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if back.Session != m.Session || back.Kind != m.Kind || !bytes.Equal(back.Body, m.Body) {
				t.Fatalf("round-trip mismatch: %+v vs %+v", m, back)
			}
		}
	})
}
