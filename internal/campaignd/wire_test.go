package campaignd

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"teledrive/internal/transport"
)

func roundTrip(t *testing.T, in *msg) *msg {
	t.Helper()
	var buf bytes.Buffer
	if err := newSender(&buf).send(in); err != nil {
		t.Fatalf("send: %v", err)
	}
	out, err := readMsg(transport.NewStreamReader(&buf))
	if err != nil {
		t.Fatalf("readMsg: %v", err)
	}
	return out
}

func TestWireRoundTripSmall(t *testing.T) {
	in := &msg{T: msgHello, Worker: "w1", Capacity: 3}
	out := roundTrip(t, in)
	if out.T != msgHello || out.Worker != "w1" || out.Capacity != 3 {
		t.Fatalf("round trip mangled message: %+v", out)
	}
}

func TestWireRoundTripCellZero(t *testing.T) {
	// Cell must not carry omitempty: cell 0 is a valid lease.
	out := roundTrip(t, &msg{T: msgLease, Cell: 0})
	if out.Cell != 0 || out.T != msgLease {
		t.Fatalf("cell 0 mangled: %+v", out)
	}
	if !strings.Contains(mustJSON(t, &msg{T: msgLease, Cell: 0}), `"cell":0`) {
		t.Fatal("cell field dropped from JSON when zero")
	}
}

func mustJSON(t *testing.T, m *msg) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireRoundTripLarge pushes a payload far beyond
// transport.MaxPayload through the chunking + compression path. The
// body is pseudorandom hex so deflate cannot collapse it below one
// chunk.
func TestWireRoundTripLarge(t *testing.T) {
	outcome := hexOutcome(7, 3<<20)
	if len(outcome) <= transport.MaxPayload {
		t.Fatalf("test payload too small to exercise chunking: %d", len(outcome))
	}

	var buf bytes.Buffer
	if err := newSender(&buf).send(&msg{T: msgResult, Cell: 4, ElapsedNS: 123, Outcome: outcome}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Chunking must actually have happened: more than one chunk on the wire.
	if chunks := countChunks(t, buf.Bytes()); chunks < 2 {
		t.Fatalf("expected multi-chunk message, got %d chunk(s)", chunks)
	}
	out, err := readMsg(transport.NewStreamReader(&buf))
	if err != nil {
		t.Fatalf("readMsg: %v", err)
	}
	if out.Cell != 4 || out.ElapsedNS != 123 || !bytes.Equal(out.Outcome, outcome) {
		t.Fatal("large message mangled in transit")
	}
}

// countChunks counts the stream messages on wire.
func countChunks(t *testing.T, wire []byte) int {
	t.Helper()
	sr := transport.NewStreamReader(bytes.NewReader(wire))
	for n := 0; ; n++ {
		if _, err := sr.ReadMsg(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireCompressionShrinksLargeBodies(t *testing.T) {
	outcome := json.RawMessage(`{"zeros":"` + strings.Repeat("0", 1<<20) + `"}`)
	var buf bytes.Buffer
	if err := newSender(&buf).send(&msg{T: msgResult, Outcome: outcome}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(outcome)/10 {
		t.Fatalf("compressible 1 MiB body should shrink dramatically, wire is %d bytes", buf.Len())
	}
	out, err := readMsg(transport.NewStreamReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Outcome, outcome) {
		t.Fatal("compressed body mangled")
	}
}

func TestWireMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	s := newSender(&buf)
	for i := 0; i < 5; i++ {
		if err := s.send(&msg{T: msgLease, Cell: i}); err != nil {
			t.Fatal(err)
		}
	}
	sr := transport.NewStreamReader(&buf)
	for i := 0; i < 5; i++ {
		m, err := readMsg(sr)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Cell != i {
			t.Fatalf("message %d: got cell %d", i, m.Cell)
		}
	}
	if _, err := readMsg(sr); err != io.EOF {
		t.Fatalf("want io.EOF at clean end of stream, got %v", err)
	}
}

// TestReadMsgRejectsMalformedInput walks every envelope error path:
// each must surface as transport.ErrProtocol (never a panic, never a
// silent nil, never io.EOF). The framing errors under it are
// transport's (TestStreamRejectsMalformedInput).
func TestReadMsgRejectsMalformedInput(t *testing.T) {
	chunk := func(flags byte, body []byte) []byte {
		var buf bytes.Buffer
		if err := transport.NewStreamWriter(&buf).WriteMsg(0, flags, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A deflate bomb: a tiny compressed body that inflates past
	// maxMessage must be refused by the LimitReader, not allocated.
	bomb := func() []byte {
		var z bytes.Buffer
		fw, _ := flate.NewWriter(&z, flate.BestSpeed)
		zeros := make([]byte, 1<<20)
		for written := 0; written <= maxMessage; written += len(zeros) {
			if _, err := fw.Write(zeros); err != nil {
				t.Fatal(err)
			}
		}
		fw.Close()
		return chunk(flagDeflate, z.Bytes())
	}()

	cases := []struct {
		name string
		data []byte
	}{
		{"invalid JSON body", chunk(0, []byte("nope"))},
		{"missing message type", chunk(0, []byte("{}"))},
		{"dangling continuation", chunk(flagMore, []byte("{"))},
		{"corrupt deflate body", chunk(flagDeflate, []byte{1, 2, 3})},
		{"deflate bomb", bomb},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := readMsg(transport.NewStreamReader(bytes.NewReader(tc.data)))
			if err == nil {
				t.Fatalf("accepted malformed input: %+v", m)
			}
			if err == io.EOF || !errors.Is(err, transport.ErrProtocol) {
				t.Fatalf("want ErrProtocol, got %v", err)
			}
		})
	}
}

// TestReadMsgPassesTimeout pins that a worker going quiet past the read
// deadline, before a message or after its first chunk, surfaces as the
// connection's timeout, which the coordinator does not count as a
// protocol error.
func TestReadMsgPassesTimeout(t *testing.T) {
	var first bytes.Buffer
	if err := transport.NewStreamWriter(&first).WriteMsg(0, flagMore, []byte("{")); err != nil {
		t.Fatal(err)
	}
	for _, sent := range [][]byte{nil, first.Bytes()} {
		a, b := net.Pipe()
		go func() { _, _ = b.Write(sent) }()
		if err := a.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := readMsg(transport.NewStreamReader(a))
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() || errors.Is(err, transport.ErrProtocol) {
			t.Errorf("quiet after %d bytes: got %v, want a timeout that is not ErrProtocol", len(sent), err)
		}
		a.Close()
		b.Close()
	}
}

func TestReadMsgCleanEOF(t *testing.T) {
	if _, err := readMsg(transport.NewStreamReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

// hexOutcome is a JSON outcome of n pseudorandom hex digits: deflate
// cannot collapse it much below n/2 bytes.
func hexOutcome(seed int64, n int) json.RawMessage {
	rng := rand.New(rand.NewSource(seed))
	raw := make([]byte, n)
	const hex = "0123456789abcdef"
	for i := range raw {
		raw[i] = hex[rng.Intn(len(hex))]
	}
	return json.RawMessage(fmt.Sprintf(`{"blob":%q}`, raw))
}

// TestSenderKeepsChunksContiguous sends several multi-chunk results
// concurrently with a stream of heartbeats, the worker's traffic
// pattern, through one sender: every message must reassemble exactly,
// which it cannot if chunks of two messages interleave.
func TestSenderKeepsChunksContiguous(t *testing.T) {
	const results, heartbeats = 4, 40
	pr, pw := io.Pipe()
	s := newSender(pw)
	outcomes := make([]json.RawMessage, results)
	for i := range outcomes {
		outcomes[i] = hexOutcome(int64(i), 3<<20)
	}

	got := make(chan error, 1)
	go func() {
		sr := transport.NewStreamReader(pr)
		seen, hbs := 0, 0
		var err error
		for err == nil && (seen < results || hbs < heartbeats) {
			var m *msg
			if m, err = readMsg(sr); err != nil {
				err = fmt.Errorf("after %d results and %d heartbeats: %w", seen, hbs, err)
				break
			}
			switch {
			case m.T == msgHeartbeat:
				hbs++
			case m.T == msgResult && m.Cell >= 0 && m.Cell < results && bytes.Equal(m.Outcome, outcomes[m.Cell]):
				seen++
			default:
				err = fmt.Errorf("message %q for cell %d mangled in transit", m.T, m.Cell)
			}
		}
		pr.CloseWithError(err) // unblocks the senders when decoding failed
		got <- err
	}()

	var wg sync.WaitGroup
	wg.Add(results + 1)
	go func() {
		defer wg.Done()
		for range heartbeats {
			if s.send(&msg{T: msgHeartbeat}) != nil {
				return // the reader failed and says why
			}
		}
	}()
	for i := range results {
		go func() {
			defer wg.Done()
			_ = s.send(&msg{T: msgResult, Cell: i, Outcome: outcomes[i]}) // on error the reader says why
		}()
	}
	wg.Wait()
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	var one bytes.Buffer
	if err := newSender(&one).send(&msg{T: msgResult, Outcome: outcomes[0]}); err != nil {
		t.Fatal(err)
	}
	if n := countChunks(t, one.Bytes()); n < 2 {
		t.Fatalf("a result spans %d chunk(s): the test needs multi-chunk messages", n)
	}
}
