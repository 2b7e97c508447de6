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
// on the wire; nothing answers, so reliable sends are never acked.
func wireTap(reliable bool) (*simclock.Clock, *Endpoint, *[][]byte) {
	clk := simclock.New()
	var sent [][]byte
	ep := NewEndpoint(clk, Options{Name: "tap", Reliable: reliable, Window: 1 << 12}, func([]byte, uint64, time.Duration) {})
	ep.AttachLink(netem.NewLink("tap", clk, 1, func(p netem.Packet) {
		sent = append(sent, bytes.Clone(p.Payload))
	}))
	return clk, ep, &sent
}

// TestFragmentWireIdentity: the one-pass fragment encoder puts exactly
// the reference bytes on the wire, for both frame types and every
// fragment-geometry edge, and a retransmission resends the first
// transmission's bytes.
func TestFragmentWireIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{0, 1, MTU - 1, MTU, MTU + 1, 2 * MTU, 24 << 10, MaxPayload}
	for i := 0; i < 6; i++ {
		sizes = append(sizes, rng.Intn(40<<10))
	}
	for _, reliable := range []bool{true, false} {
		typ := FrameDatagram
		if reliable {
			typ = FrameData
		}
		clk, ep, sent := wireTap(reliable)
		seq := uint64(1)
		for m, size := range sizes {
			payload := make([]byte, size)
			rng.Read(payload[:size/2]) // a random head and a zero tail, like a world view
			clk.Advance(time.Millisecond)
			*sent = (*sent)[:0]
			ts := clk.Now()
			if err := ep.Send(payload); err != nil {
				t.Fatalf("%v %d B: %v", typ, size, err)
			}
			clk.Advance(0)
			want := refFragments(t, typ, seq, ts, uint32(m+1), payload)
			if len(*sent) != len(want) {
				t.Fatalf("%v %d B: %d frames on the wire, want %d", typ, size, len(*sent), len(want))
			}
			for i := range want {
				if !bytes.Equal((*sent)[i], want[i]) {
					t.Fatalf("%v %d B: fragment %d differs from the reference encoding", typ, size, i)
				}
			}
			seq += uint64(len(want))
		}
		if !reliable {
			continue
		}
		// Nothing acks: the RTO retransmits the oldest segment, which
		// must be the first fragment of the first message, byte for byte.
		first := refFragments(t, typ, 1, time.Millisecond, 1, nil)[0]
		*sent = (*sent)[:0]
		clk.Advance(DefaultRTOMax)
		if len(*sent) == 0 {
			t.Fatal("no retransmission after the RTO")
		}
		for i, rtx := range *sent {
			if !bytes.Equal(rtx, first) {
				t.Fatalf("retransmission %d differs from the first send", i)
			}
		}
	}
}

// TestChecksumMatchesCRC32: checksum is crc32.Checksum for buffers with
// and without zero tails, at every length that changes its path.
func TestChecksumMatchesCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var lengths []int
	for _, base := range []int{0, 1, zeroBlockMin, headerLen + fragHeaderLen + MTU, MTU, zeroBlockMax, 24 << 10} {
		for d := -3; d <= 3; d++ {
			if base+d >= 0 {
				lengths = append(lengths, base+d)
			}
		}
	}
	for k := zeroBlockMinLog; k <= zeroBlockMaxLog+1; k++ {
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

// FuzzChecksum: for arbitrary bytes followed by an arbitrary run of
// zeros, checksum agrees with crc32.Checksum.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("header"), uint16(MTU))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 1}, uint16(4095))
	f.Add(bytes.Repeat([]byte{0xA5}, headerLen+fragHeaderLen), uint16(MTU))
	f.Fuzz(func(t *testing.T, head []byte, zeros uint16) {
		b := append(bytes.Clone(head), make([]byte, zeros)...)
		if got, want := checksum(b), crc32.Checksum(b, crcTable); got != want {
			t.Fatalf("checksum(%d B head + %d zeros) = %08x, want %08x", len(head), zeros, got, want)
		}
	})
}

// BenchmarkChecksum compares the zero-run checksum with crc32 on a full
// zero-filled mid-fragment frame body, the bulk of keyframe traffic.
func BenchmarkChecksum(b *testing.B) {
	body := make([]byte, headerLen+fragHeaderLen+MTU)
	for i := range headerLen + fragHeaderLen {
		body[i] = byte(i + 1)
	}
	for _, bc := range []struct {
		name string
		sum  func([]byte) uint32
	}{
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
			putFragment(wire, FrameDatagram, 1, 0, 1, tc.idx, tc.count, make([]byte, tc.chunk))
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
