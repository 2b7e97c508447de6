package hub

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
)

// referenceWire is the hub framing written out longhand: a 4-byte
// big-endian length, then transport.EncodeFrame of kind+body.
func referenceWire(t testing.TB, session uint64, kind byte, body []byte) []byte {
	t.Helper()
	wire, err := transport.EncodeFrame(transport.Frame{
		Type: transport.FrameData, Seq: session, Payload: append([]byte{kind}, body...),
	})
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

// TestHubWireConcurrentWriters sends K×M messages from K goroutines
// through one writer: every message arrives exactly once, each writer's
// messages keep their order, the stream is byte-for-byte the reference
// framing of what arrived, and writers that overlap share writes.
func TestHubWireConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 150
	out := &exclusiveWriter{t: t}
	ww := newWireWriter(out)
	var wg sync.WaitGroup
	for k := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				body := binary.BigEndian.AppendUint32(nil, uint32(i))
				body = append(body, bytes.Repeat([]byte{byte(k)}, (i*37+k*101)%3000)...)
				if err := ww.writeMsg(uint64(k), kindBridge, body); err != nil {
					t.Errorf("writer %d message %d: %v", k, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	stream := out.buf.Bytes()
	wr := newWireReader(bytes.NewReader(stream))
	var ref []byte
	next := make([]int, writers)
	for {
		m, err := wr.readMsg()
		if isEOF(err) {
			break
		}
		if err != nil {
			t.Fatalf("decode after %d bytes of reference: %v", len(ref), err)
		}
		k := int(m.Session)
		if k >= writers || m.Kind != kindBridge || len(m.Body) < 4 {
			t.Fatalf("unexpected message session=%d kind=%#x len=%d", m.Session, m.Kind, len(m.Body))
		}
		if i := int(binary.BigEndian.Uint32(m.Body)); i != next[k] {
			t.Fatalf("writer %d: message %d arrived where %d was due", k, i, next[k])
		}
		next[k]++
		ref = append(ref, referenceWire(t, m.Session, m.Kind, m.Body)...)
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

// TestHubWireStickyError fills the pending buffer behind a write that
// stalls and then fails. Writers waiting at the cap must all wake with
// the error, every later call must return it, and the broken stream
// must see no further write.
func TestHubWireStickyError(t *testing.T) {
	out := &blockingFailWriter{release: make(chan struct{})}
	ww := newWireWriter(out)
	body := make([]byte, 60<<10)
	const writers, perWriter = 4, 40 // 9.6 MB offered against a 1 MiB cap

	var wg sync.WaitGroup
	for k := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for i := range perWriter {
				err := ww.writeMsg(uint64(k), kindBridge, body)
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
		ww.mu.Lock()
		full := ww.flushing && len(ww.pend) >= maxPending
		ww.mu.Unlock()
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
	if err := ww.writeMsg(9, kindBridge, nil); !errors.Is(err, errStreamBroken) {
		t.Errorf("writeMsg after failure = %v, want the sticky error", err)
	}
	if err := ww.queueMsg(9, kindBridge, nil); !errors.Is(err, errStreamBroken) {
		t.Errorf("queueMsg after failure = %v, want the sticky error", err)
	}
	if err := ww.flush(); !errors.Is(err, errStreamBroken) {
		t.Errorf("flush after failure = %v, want the sticky error", err)
	}
	if n := out.writes.Load(); n != 1 {
		t.Errorf("broken stream saw %d writes, want 1", n)
	}
}

// TestHubWireQueueLeavesOnFlush pins the queue half of the writer:
// queued messages stay off the stream until a flush or the next
// writeMsg, then leave in one write, in order.
func TestHubWireQueueLeavesOnFlush(t *testing.T) {
	out := &exclusiveWriter{t: t}
	ww := newWireWriter(out)
	var want []byte
	for i := range 3 {
		body := []byte{byte(i)}
		if err := ww.queueMsg(7, kindBridge, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, referenceWire(t, 7, kindBridge, body)...)
	}
	if out.writes.Load() != 0 {
		t.Fatal("queueMsg wrote to the stream")
	}
	if err := ww.flush(); err != nil {
		t.Fatal(err)
	}
	if n := out.writes.Load(); n != 1 || !bytes.Equal(out.buf.Bytes(), want) {
		t.Fatalf("flush: %d writes of %x, want 1 write of %x", n, out.buf.Bytes(), want)
	}
	if err := ww.flush(); err != nil || out.writes.Load() != 1 {
		t.Fatalf("flush of an empty queue: err %v, %d writes", err, out.writes.Load())
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

// TestHubWireFlusherCarriesLateWriters pins the group commit's hand-off:
// a writer arriving while another's write is in flight returns without
// touching the stream, and the flusher writes its message before it
// returns.
func TestHubWireFlusherCarriesLateWriters(t *testing.T) {
	out := &gatedWriter{gate: make(chan struct{}), entered: make(chan struct{})}
	ww := newWireWriter(out)
	first := make(chan error, 1)
	go func() { first <- ww.writeMsg(1, kindBridge, []byte("first")) }()
	<-out.entered

	late := make(chan error, 1)
	go func() { late <- ww.writeMsg(2, kindBridge, []byte("late")) }()
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
	want := append(referenceWire(t, 1, kindBridge, []byte("first")), referenceWire(t, 2, kindBridge, []byte("late"))...)
	if out.writes != 2 || !bytes.Equal(out.buf.Bytes(), want) {
		t.Fatalf("stream after the flusher returned: %d writes of %x, want 2 writes of %x", out.writes, out.buf.Bytes(), want)
	}
}

// tickSession builds one served session on a hub of its own, its
// downlink captured in a buffer. Two sessions built with the same seed
// get the same id and run bit-identically.
func tickSession(t *testing.T, seed int64) (*liveSession, *bytes.Buffer) {
	t.Helper()
	h := New(Config{Turbo: true})
	down := new(bytes.Buffer)
	hc := &hubConn{h: h, ww: newWireWriter(down), sessions: make(map[uint64]*liveSession)}
	ls, err := h.newLiveSession(hc, JoinRequest{Scenario: "follow-vehicle", Seed: seed, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	ls.srv.Start()
	t.Cleanup(ls.srv.Stop)
	return ls, down
}

// TestHubWireTickDrain pins the tick-time uplink drain against sending
// on arrival. One session gets controls and pings through its inbox
// while it waits for the next tick; its twin gets the same messages
// sent straight into its uplink endpoint at the previous step's
// clock.Now(), as they arrived. The drain must send all of them at the
// next step, in order, and leave the plant and the whole downlink
// byte-identical to the twin's.
func TestHubWireTickDrain(t *testing.T) {
	drained, downDrained := tickSession(t, 41)
	direct, downDirect := tickSession(t, 41)
	next := time.Duration(0)
	tick := func() {
		next += bridge.PhysicsTick
		drained.step(next)
		direct.clock.AdvanceTo(next)
	}
	for range 50 {
		tick()
	}

	var msgs [][]byte
	for i, throttle := range []float64{0.2, 0.6, 0.9} {
		msgs = append(msgs, bridge.AppendControlMsg(nil, vehicle.Control{Throttle: throttle, Steer: 0.1 * float64(i)}))
		ping, err := json.Marshal(bridge.MetaCommand{Seq: uint64(i + 1), Cmd: "ping"})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, append([]byte{byte(bridge.MsgMeta)}, ping...))
	}
	sentBefore := drained.station.Stats().MsgsSent
	for _, m := range msgs {
		drained.inbox <- m
		if err := direct.station.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	if len(drained.inbox) != 0 {
		t.Fatalf("%d messages still queued after the step", len(drained.inbox))
	}
	if sent := drained.station.Stats().MsgsSent - sentBefore; sent != uint64(len(msgs)) {
		t.Fatalf("step sent %d of %d queued messages", sent, len(msgs))
	}
	for range 100 {
		tick()
	}

	if got, want := drained.srv.Stats(), direct.srv.Stats(); got != want || got.ControlsApplied != 3 {
		t.Fatalf("plant stats %+v, want %+v with 3 controls applied", got, want)
	}
	if got, want := drained.srv.LastControl(), (vehicle.Control{Throttle: 0.9, Steer: 0.2}); got != want {
		t.Errorf("last applied control %+v, want the last one sent %+v", got, want)
	}
	if !bytes.Equal(downDrained.Bytes(), downDirect.Bytes()) {
		t.Error("downlink differs from the session that sent on arrival")
	}
	var seqs []uint64
	wr := newWireReader(downDrained)
	for {
		m, err := wr.readMsg()
		if isEOF(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Body) > 0 && bridge.MsgType(m.Body[0]) == bridge.MsgMetaReply {
			var r bridge.MetaReply
			if err := json.Unmarshal(m.Body[1:], &r); err != nil {
				t.Fatal(err)
			}
			if r.Data["time_ns"] != "" {
				seqs = append(seqs, r.Seq)
			}
		}
	}
	if fmt.Sprint(seqs) != "[1 2 3]" {
		t.Errorf("ping replies in order %v, want [1 2 3]", seqs)
	}
}

// BenchmarkHubWire frames and decodes one message per op through a
// writer and reader pair: a control, a delta frame and a keyframe.
func BenchmarkHubWire(b *testing.B) {
	for _, size := range []int{bridge.ControlMsgLen, 6 << 10, 24 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			body := bytes.Repeat([]byte{0x5a}, size)
			var stream bytes.Buffer
			ww := newWireWriter(&stream)
			wr := newWireReader(&stream)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for range b.N {
				if err := ww.writeMsg(3, kindBridge, body); err != nil {
					b.Fatal(err)
				}
				if _, err := wr.readMsg(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
