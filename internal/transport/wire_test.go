package transport

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// refFragments is the two-copy reference the one-pass encoder replaced:
// split the message into MTU chunks, prefix each with the fragment
// header, then EncodeFrame the result.
func refFragments(t *testing.T, typ FrameType, firstSeq uint64, ts time.Duration, msgID uint32, payload []byte) [][]byte {
	t.Helper()
	n := (len(payload) + MTU - 1) / MTU
	if n == 0 {
		n = 1
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		chunk := payload[i*MTU : min(len(payload), (i+1)*MTU)]
		frag := []byte{0, byte(msgID >> 24), byte(msgID >> 16), byte(msgID >> 8), byte(msgID), byte(i >> 8), byte(i), byte(n >> 8), byte(n)}
		if i == n-1 {
			frag[0] = fragFlagLast
		}
		wire, err := EncodeFrame(Frame{Type: typ, Seq: firstSeq + uint64(i), Timestamp: ts, Payload: append(frag, chunk...)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire)
	}
	return out
}

// wireTap is an endpoint whose egress link records every frame it puts
// on the wire, elided zeros written out; nothing answers, so reliable
// sends are never acked.
func wireTap(reliable bool) (*simclock.Clock, *Endpoint, *[][]byte) {
	clk := simclock.New()
	var sent [][]byte
	ep := NewEndpoint(clk, Options{Name: "tap", Reliable: reliable, Window: 1 << 12}, func([]byte, uint64, time.Duration) {})
	ep.AttachLink(netem.NewLink("tap", clk, 1, func(p netem.Packet) {
		sent = append(sent, p.AppendWire(nil))
	}))
	return clk, ep, &sent
}

// fillMsg is a message as SendFill takes it: head, then fill zeros.
type fillMsg struct {
	head []byte
	fill int
}

func (m fillMsg) bytes() []byte { return append(bytes.Clone(m.head), make([]byte, m.fill)...) }

// fillMsgs covers the fragment-geometry edges of a head and of a fill,
// and every pairing of them.
func fillMsgs(rng *rand.Rand) []fillMsg {
	var msgs []fillMsg
	for _, h := range []int{0, 1, MTU - 1, MTU, MTU + 1, 700} {
		for _, f := range []int{0, 1, MTU - 1, MTU, MTU + 1, 6000, 24000} {
			head := make([]byte, h)
			rng.Read(head)
			msgs = append(msgs, fillMsg{head, f})
		}
	}
	return msgs
}

// TestFragmentWireIdentity: the one-pass fragment encoder puts exactly
// the reference bytes on the wire, for both frame types, every
// fragment-geometry edge and every head and fill edge: a fragment's
// elided zeros, written out, are the zeros the dense message carries.
func TestFragmentWireIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var msgs []fillMsg
	for _, size := range []int{0, 1, MTU - 1, MTU, MTU + 1, 2 * MTU, 24 << 10, MaxPayload} {
		msgs = append(msgs, denseMsg(rng, size))
	}
	for i := 0; i < 6; i++ {
		msgs = append(msgs, denseMsg(rng, rng.Intn(40<<10)))
	}
	msgs = append(msgs, fillMsgs(rng)...)
	for _, reliable := range []bool{true, false} {
		typ := FrameDatagram
		if reliable {
			typ = FrameData
		}
		clk, ep, sent := wireTap(reliable)
		seq := uint64(1)
		for m, msg := range msgs {
			clk.Advance(time.Millisecond)
			*sent = (*sent)[:0]
			ts := clk.Now()
			if err := ep.SendFill(msg.head, msg.fill); err != nil {
				t.Fatalf("%v %d B + %d zeros: %v", typ, len(msg.head), msg.fill, err)
			}
			clk.Advance(0)
			want := refFragments(t, typ, seq, ts, uint32(m+1), msg.bytes())
			if len(*sent) != len(want) {
				t.Fatalf("%v %d B + %d zeros: %d frames on the wire, want %d", typ, len(msg.head), msg.fill, len(*sent), len(want))
			}
			for i := range want {
				if !bytes.Equal((*sent)[i], want[i]) {
					t.Fatalf("%v %d B + %d zeros: fragment %d differs from the reference encoding", typ, len(msg.head), msg.fill, i)
				}
			}
			seq += uint64(len(want))
		}
	}
}

// denseMsg is a size-byte message with a random head and a zero tail,
// like a world view, sent as bytes.
func denseMsg(rng *rand.Rand, size int) fillMsg {
	payload := make([]byte, size)
	rng.Read(payload[:size/2])
	return fillMsg{payload, 0}
}

// TestRetransmitWireIdentity: a fast retransmit and every RTO
// retransmission resend a segment's first transmission byte for byte,
// its elided zeros included — for a segment that carries head bytes
// and zeros, and for a full mid-fill one.
func TestRetransmitWireIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	head := make([]byte, 700)
	rng.Read(head)
	msg := fillMsg{head, 24000}
	for frag := 0; frag < 2; frag++ {
		clk, ep, sent := wireTap(true)
		ts := clk.Now()
		if err := ep.SendFill(msg.head, msg.fill); err != nil {
			t.Fatal(err)
		}
		clk.Advance(0)
		want := refFragments(t, FrameData, 1, ts, 1, msg.bytes())[frag]
		if !bytes.Equal((*sent)[frag], want) {
			t.Fatalf("fragment %d: first send differs from the reference encoding", frag)
		}
		ack := func(seq uint64) {
			wire, err := EncodeFrame(Frame{Type: FrameAck, Seq: seq})
			if err != nil {
				t.Fatal(err)
			}
			ep.HandlePacket(netem.Packet{Payload: wire})
		}
		// Acknowledge the fragments before frag, then three duplicate
		// ACKs: a fast retransmit of frag. The RTO then resends it,
		// backing off, until the advance ends.
		if frag > 0 {
			ack(uint64(frag))
		}
		*sent = (*sent)[:0]
		for range 3 {
			ack(uint64(frag))
		}
		clk.Advance(0)
		if len(*sent) != 1 || ep.Stats().Retransmits != 1 {
			t.Fatalf("fragment %d: %d frames and %d retransmits after three duplicate ACKs, want one fast retransmit", frag, len(*sent), ep.Stats().Retransmits)
		}
		clk.Advance(DefaultRTOMax)
		if len(*sent) < 3 {
			t.Fatalf("fragment %d: %d retransmissions after the RTO", frag, len(*sent))
		}
		for i, rtx := range *sent {
			if !bytes.Equal(rtx, want) {
				t.Fatalf("fragment %d: retransmission %d differs from the first send", frag, i)
			}
		}
	}
}

// TestChecksumMatchesCRC32: checksum is crc32.Checksum for buffers with
// and without zero tails, at every length that changes its path.
func TestChecksumMatchesCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var lengths []int
	for _, base := range []int{0, 1, denseMin, headerLen + fragHeaderLen + MTU, MTU, zeroBlockMax, 24 << 10} {
		for d := -3; d <= 3; d++ {
			if base+d >= 0 {
				lengths = append(lengths, base+d)
			}
		}
	}
	for k := denseMinLog; k <= zeroBlockMaxLog+1; k++ {
		lengths = append(lengths, 1<<k-1, 1<<k, 1<<k+1)
	}
	for i := 0; i < 64; i++ {
		lengths = append(lengths, rng.Intn(3*zeroBlockMax))
	}
	lengths = append(lengths, MaxPayload+frameOverhead+fragHeaderLen)
	check := func(b []byte) {
		t.Helper()
		if got, want := checksum(b), crc32.Checksum(b, crcTable); got != want {
			t.Fatalf("checksum(%d B, %d-byte zero tail) = %08x, want %08x", len(b), zeroTail(b), got, want)
		}
	}
	for _, n := range lengths {
		check(make([]byte, n)) // all zero
		b := make([]byte, n)
		rng.Read(b)
		check(b) // no zero tail
		if n == 0 {
			continue
		}
		for _, head := range []int{0, 1, n / 3, n - 1, rng.Intn(n)} {
			b := make([]byte, n)
			rng.Read(b[:head])
			if head > 0 {
				b[head-1] |= 1 // the run starts exactly at head
			}
			check(b)
		}
	}
	// A full mid-fragment: a 32-byte header and exactly MTU zeros.
	b := make([]byte, headerLen+fragHeaderLen+MTU)
	rng.Read(b[:headerLen+fragHeaderLen])
	check(b)
}

func zeroTail(b []byte) int {
	n := 0
	for n < len(b) && b[len(b)-1-n] == 0 {
		n++
	}
	return n
}

// TestChecksumZeros: checksumZeros(head, n) is crc32.Checksum of head
// followed by n zeros, for every n from 0 to 4·MTU — every fragment's
// zero tail, and runs that take every ladder block.
func TestChecksumZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, h := range []int{0, 1, headerLen + fragHeaderLen, 700} {
		head := make([]byte, h)
		rng.Read(head)
		want := crc32.Checksum(head, crcTable)
		for n := 0; n <= 4*MTU; n++ {
			if got := checksumZeros(head, n); got != want {
				t.Fatalf("checksumZeros(%d B, %d) = %08x, want %08x", h, n, got, want)
			}
			want = crc32.Update(want, crcTable, []byte{0})
		}
	}
}

// FuzzChecksum: for arbitrary bytes followed by an arbitrary run of
// zeros, checksum of the whole and checksumZeros of the head and the
// run's length agree with crc32.Checksum.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("header"), uint16(MTU))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 1}, uint16(4095))
	f.Add(bytes.Repeat([]byte{0xA5}, headerLen+fragHeaderLen), uint16(MTU))
	f.Fuzz(func(t *testing.T, head []byte, zeros uint16) {
		b := append(bytes.Clone(head), make([]byte, zeros)...)
		want := crc32.Checksum(b, crcTable)
		if got := checksum(b); got != want {
			t.Fatalf("checksum(%d B head + %d zeros) = %08x, want %08x", len(head), zeros, got, want)
		}
		if got := checksumZeros(head, int(zeros)); got != want {
			t.Fatalf("checksumZeros(%d B head, %d) = %08x, want %08x", len(head), zeros, got, want)
		}
	})
}

// BenchmarkChecksum compares the elided and the zero-run checksum with
// crc32 on a full zero-filled mid-fragment frame body, the bulk of
// keyframe traffic.
func BenchmarkChecksum(b *testing.B) {
	body := make([]byte, headerLen+fragHeaderLen+MTU)
	for i := range headerLen + fragHeaderLen {
		body[i] = byte(i + 1)
	}
	for _, bc := range []struct {
		name string
		sum  func([]byte) uint32
	}{
		{"elided", func(b []byte) uint32 { return checksumZeros(b[:headerLen+fragHeaderLen], MTU) }},
		{"zero-run", checksum},
		{"crc32", func(b []byte) uint32 { return crc32.Checksum(b, crcTable) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				checksumSink = bc.sum(body)
			}
		})
	}
}

var checksumSink uint32

// TestChunkGeometryRejected: only putFragment makes fragments, so a
// non-last chunk that is not exactly MTU bytes, a last chunk over MTU or
// a count beyond MaxPayload's is corrupt: counted, never reassembled.
func TestChunkGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name        string
		idx, count  int
		chunk       int
		wantCorrupt uint64
	}{
		{"full non-last chunk", 0, 2, MTU, 0},
		{"short non-last chunk", 0, 2, MTU - 1, 1},
		{"long non-last chunk", 0, 2, MTU + 1, 1},
		{"full last chunk", 1, 2, MTU, 0},
		{"long last chunk", 1, 2, MTU + 1, 1},
		{"long single chunk", 0, 1, MTU + 1, 1},
		{"count past MaxPayload", 0, maxFragments + 1, MTU, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			ep := NewEndpoint(clk, Options{Reliable: false}, func([]byte, uint64, time.Duration) {
				t.Fatal("delivered a message with a corrupt chunk")
			})
			wire := make([]byte, fragFrameLen(tc.chunk))
			putFragment(wire, FrameDatagram, 1, 0, 1, tc.idx, tc.count, make([]byte, tc.chunk), 0)
			ep.HandlePacket(netem.Packet{Payload: wire})
			st := ep.Stats()
			if st.CorruptDropped != tc.wantCorrupt {
				t.Fatalf("CorruptDropped = %d, want %d", st.CorruptDropped, tc.wantCorrupt)
			}
			if held := len(ep.partials); held != int(1-tc.wantCorrupt) {
				t.Fatalf("%d partial messages held, want %d", held, 1-tc.wantCorrupt)
			}
		})
	}
}
