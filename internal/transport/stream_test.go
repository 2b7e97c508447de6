package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// referenceStream is the stream framing written out longhand: a 4-byte
// big-endian length, then EncodeFrame of tag+body.
func referenceStream(t testing.TB, seq uint64, tag byte, body []byte) []byte {
	t.Helper()
	wire, err := EncodeFrame(Frame{Type: FrameData, Seq: seq, Payload: append([]byte{tag}, body...)})
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(wire))), wire...)
}

// exclusiveWriter records what reaches the stream and fails the test if
// two Write calls ever overlap: the group commit must hand the stream
// to one flusher at a time. Each write dawdles so that writers pile up
// behind it.
type exclusiveWriter struct {
	t        *testing.T
	inFlight atomic.Int32
	writes   atomic.Int32
	buf      bytes.Buffer
}

func (w *exclusiveWriter) Write(p []byte) (int, error) {
	if w.inFlight.Add(1) != 1 {
		w.t.Error("two writes in flight on one stream")
	}
	defer w.inFlight.Add(-1)
	w.writes.Add(1)
	time.Sleep(50 * time.Microsecond)
	return w.buf.Write(p)
}

// TestStreamConcurrentWriters sends K×M messages from K goroutines
// through one writer: every message arrives exactly once, each writer's
// messages keep their order, the stream is byte-for-byte the reference
// framing of what arrived, and writers that overlap share writes.
func TestStreamConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 150
	out := &exclusiveWriter{t: t}
	sw := NewStreamWriter(out)
	var wg sync.WaitGroup
	for k := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				body := binary.BigEndian.AppendUint32(nil, uint32(i))
				body = append(body, bytes.Repeat([]byte{byte(k)}, (i*37+k*101)%3000)...)
				if err := sw.WriteMsg(uint64(k), 0x01, body); err != nil {
					t.Errorf("writer %d message %d: %v", k, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	stream := out.buf.Bytes()
	sr := NewStreamReader(bytes.NewReader(stream))
	var ref []byte
	next := make([]int, writers)
	for {
		m, err := sr.ReadMsg()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode after %d bytes of reference: %v", len(ref), err)
		}
		k := int(m.Seq)
		if k >= writers || m.Tag != 0x01 || len(m.Body) < 4 {
			t.Fatalf("unexpected message seq=%d tag=%#x len=%d", m.Seq, m.Tag, len(m.Body))
		}
		if i := int(binary.BigEndian.Uint32(m.Body)); i != next[k] {
			t.Fatalf("writer %d: message %d arrived where %d was due", k, i, next[k])
		}
		next[k]++
		ref = append(ref, referenceStream(t, m.Seq, m.Tag, m.Body)...)
	}
	for k, n := range next {
		if n != perWriter {
			t.Errorf("writer %d: %d of %d messages arrived", k, n, perWriter)
		}
	}
	if !bytes.Equal(stream, ref) {
		t.Error("stream differs from the reference framing of the messages it carries")
	}
	if n := out.writes.Load(); n >= writers*perWriter {
		t.Errorf("%d writes for %d messages from %d overlapping writers: no group commit", n, writers*perWriter, writers)
	}
}

// blockingFailWriter holds its first write until release closes, then
// fails it. It counts the writes it saw.
type blockingFailWriter struct {
	release chan struct{}
	writes  atomic.Int32
}

var errStreamBroken = errors.New("stream broken")

func (w *blockingFailWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	<-w.release
	return 0, errStreamBroken
}

// TestStreamStickyError fills the pending buffer behind a write that
// stalls and then fails. Writers waiting at the cap must all wake with
// the error, every later call must return it, and the broken stream
// must see no further write.
func TestStreamStickyError(t *testing.T) {
	out := &blockingFailWriter{release: make(chan struct{})}
	sw := NewStreamWriter(out)
	body := make([]byte, 60<<10)
	const writers, perWriter = 4, 40 // 9.6 MB offered against a 1 MiB cap

	var wg sync.WaitGroup
	for k := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for i := range perWriter {
				err := sw.WriteMsg(uint64(k), 0x01, body)
				switch {
				case errors.Is(err, errStreamBroken):
					failed = true
				case err != nil:
					t.Errorf("writer %d message %d: unexpected error %v", k, i, err)
				case failed:
					t.Errorf("writer %d message %d: nil error after the stream broke", k, i)
				}
			}
			if !failed {
				t.Errorf("writer %d never saw the stream error", k)
			}
		}()
	}

	// Wait until the queue has reached the cap behind the stalled write.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sw.mu.Lock()
		full := sw.flushing && len(sw.pend) >= maxPending
		sw.mu.Unlock()
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending buffer never reached its cap")
		}
		time.Sleep(time.Millisecond)
	}
	close(out.release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writers still blocked 10 s after the stream failed")
	}
	if err := sw.WriteMsg(9, 0x01, nil); !errors.Is(err, errStreamBroken) {
		t.Errorf("WriteMsg after failure = %v, want the sticky error", err)
	}
	if err := sw.QueueMsg(9, 0x01, nil); !errors.Is(err, errStreamBroken) {
		t.Errorf("QueueMsg after failure = %v, want the sticky error", err)
	}
	if err := sw.Flush(); !errors.Is(err, errStreamBroken) {
		t.Errorf("Flush after failure = %v, want the sticky error", err)
	}
	if n := out.writes.Load(); n != 1 {
		t.Errorf("broken stream saw %d writes, want 1", n)
	}
}

// TestStreamQueueLeavesOnFlush pins the queue half of the writer:
// queued messages stay off the stream until a flush or the next
// WriteMsg, then leave in one write, in order.
func TestStreamQueueLeavesOnFlush(t *testing.T) {
	out := &exclusiveWriter{t: t}
	sw := NewStreamWriter(out)
	var want []byte
	for i := range 3 {
		body := []byte{byte(i)}
		if err := sw.QueueMsg(7, 0x01, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, referenceStream(t, 7, 0x01, body)...)
	}
	if out.writes.Load() != 0 {
		t.Fatal("QueueMsg wrote to the stream")
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := out.writes.Load(); n != 1 || !bytes.Equal(out.buf.Bytes(), want) {
		t.Fatalf("Flush: %d writes of %x, want 1 write of %x", n, out.buf.Bytes(), want)
	}
	if err := sw.Flush(); err != nil || out.writes.Load() != 1 {
		t.Fatalf("Flush of an empty queue: err %v, %d writes", err, out.writes.Load())
	}
}

// gatedWriter holds its first write until gate closes.
type gatedWriter struct {
	gate, entered chan struct{}
	writes        int
	buf           bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if w.writes == 0 {
		close(w.entered)
		<-w.gate
	}
	w.writes++
	return w.buf.Write(p)
}

// TestStreamFlusherCarriesLateWriters pins the group commit's hand-off:
// a writer arriving while another's write is in flight returns without
// touching the stream, and the flusher writes its message before it
// returns.
func TestStreamFlusherCarriesLateWriters(t *testing.T) {
	out := &gatedWriter{gate: make(chan struct{}), entered: make(chan struct{})}
	sw := NewStreamWriter(out)
	first := make(chan error, 1)
	go func() { first <- sw.WriteMsg(1, 0x01, []byte("first")) }()
	<-out.entered

	late := make(chan error, 1)
	go func() { late <- sw.WriteMsg(2, 0x01, []byte("late")) }()
	select {
	case err := <-late:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a writer behind a write in flight blocked")
	}
	close(out.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	want := append(referenceStream(t, 1, 0x01, []byte("first")), referenceStream(t, 2, 0x01, []byte("late"))...)
	if out.writes != 2 || !bytes.Equal(out.buf.Bytes(), want) {
		t.Fatalf("stream after the flusher returned: %d writes of %x, want 2 writes of %x", out.writes, out.buf.Bytes(), want)
	}
}

// TestStreamBodyCap pins the one body cap on both sides: the largest
// body round-trips, one byte more is refused before anything is queued.
func TestStreamBodyCap(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WriteMsg(3, 0x02, make([]byte, MaxBody+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized body: err %v, want ErrProtocol", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized body left %d bytes on the stream", buf.Len())
	}
	body := bytes.Repeat([]byte{0x5a}, MaxBody)
	if err := sw.WriteMsg(3, 0x02, body); err != nil {
		t.Fatal(err)
	}
	m, err := NewStreamReader(&buf).ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 3 || m.Tag != 0x02 || !bytes.Equal(m.Body, body) {
		t.Fatal("largest body mangled in transit")
	}
}

// TestStreamRejectsMalformedInput walks every framing error: each must
// wrap ErrProtocol (never a panic, never a silent nil, never io.EOF).
func TestStreamRejectsMalformedInput(t *testing.T) {
	valid := referenceStream(t, 0, 0x00, []byte(`{"t":"hb"}`))
	frame := func(typ FrameType, payload []byte) []byte {
		wire, err := EncodeFrame(Frame{Type: typ, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(wire))), wire...)
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x40

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated length prefix", valid[:2]},
		{"zero frame length", []byte{0, 0, 0, 0}},
		{"oversized frame length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated frame body", valid[:len(valid)-3]},
		{"corrupt frame CRC", corrupt},
		{"non-data frame type", frame(FrameAck, []byte{0})},
		{"empty frame payload", frame(FrameData, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewStreamReader(bytes.NewReader(tc.data)).ReadMsg()
			if err == nil {
				t.Fatalf("accepted malformed input: %+v", m)
			}
			if err == io.EOF || !errors.Is(err, ErrProtocol) {
				t.Fatalf("want ErrProtocol, got %v", err)
			}
		})
	}
}

// timeoutErr is a read deadline as a net.Conn reports it.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestStreamPassesIOErrors pins the other half of the error rule: a
// read that fails (a deadline, a closed connection), at a message
// boundary or mid-message, is an I/O event and returns unchanged, not
// as ErrProtocol; a stream that ends mid-message is still truncated
// input.
func TestStreamPassesIOErrors(t *testing.T) {
	valid := referenceStream(t, 0, 0x00, []byte(`{"t":"hb"}`))
	for _, ioErr := range []error{timeoutErr{}, net.ErrClosed} {
		for _, at := range []int{0, 2, 4, len(valid) - 3} {
			t.Run(fmt.Sprintf("%v after %d bytes", ioErr, at), func(t *testing.T) {
				r := io.MultiReader(bytes.NewReader(valid[:at]), iotest.ErrReader(ioErr))
				_, err := NewStreamReader(r).ReadMsg()
				if !errors.Is(err, ioErr) || errors.Is(err, ErrProtocol) {
					t.Fatalf("got %v, want %v not wrapped in ErrProtocol", err, ioErr)
				}
			})
		}
	}
	for _, at := range []int{2, 4, len(valid) - 3} {
		_, err := NewStreamReader(bytes.NewReader(valid[:at])).ReadMsg()
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("stream cut after %d bytes: got %v, want ErrProtocol", at, err)
		}
	}
}

// FuzzStream treats the stream as hostile territory: whatever bytes
// arrive, ReadMsg must return messages or errors, never panic; every
// error is exactly io.EOF or wraps ErrProtocol; and every decoded
// message round-trips bit for bit.
func FuzzStream(f *testing.F) {
	// Seed with genuine traffic: hub kinds and campaignd chunk flags.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, m := range []struct {
		seq  uint64
		tag  byte
		body []byte
	}{
		{0, 0xA0, []byte(`{"scenario":"training","seed":7}`)},
		{1, 0xA1, []byte(`{"session_id":1,"scenario":"training"}`)},
		{1, 0x01, []byte{0x01, 0xde, 0xad}},
		{1, 0xA2, nil},
		{0, 0x01, []byte(`{"t":"result","cell":0,"outcome":`)},
		{0, 0x00, []byte(`{}}`)},
	} {
		if err := sw.WriteMsg(m.seq, m.tag, m.body); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(buf.Bytes()[:7]) // truncated mid-frame

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bytes.NewReader(data))
		for {
			m, err := sr.ReadMsg()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrProtocol) {
					t.Fatalf("error is neither io.EOF nor ErrProtocol: %v", err)
				}
				return
			}
			var out bytes.Buffer
			if err := NewStreamWriter(&out).WriteMsg(m.Seq, m.Tag, m.Body); err != nil {
				t.Fatalf("re-encode of decoded message failed: %v", err)
			}
			if !bytes.Equal(out.Bytes(), referenceStream(t, m.Seq, m.Tag, m.Body)) {
				t.Fatal("re-encode differs from the reference framing")
			}
			back, err := NewStreamReader(&out).ReadMsg()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if back.Seq != m.Seq || back.Tag != m.Tag || !bytes.Equal(back.Body, m.Body) {
				t.Fatalf("round-trip mismatch: %+v vs %+v", m, back)
			}
		}
	})
}

// BenchmarkStream frames and decodes one message per op through a
// writer and reader pair: a control (bridge.ControlMsgLen bytes), a
// delta frame and a keyframe.
func BenchmarkStream(b *testing.B) {
	for _, size := range []int{26, 6 << 10, 24 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			body := bytes.Repeat([]byte{0x5a}, size)
			var stream bytes.Buffer
			sw := NewStreamWriter(&stream)
			sr := NewStreamReader(&stream)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for range b.N {
				if err := sw.WriteMsg(3, 0x01, body); err != nil {
					b.Fatal(err)
				}
				if _, err := sr.ReadMsg(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
