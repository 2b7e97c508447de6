package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// assertZeroPool checks the invariant of e's zeroed pool: every buffer
// in it is all zero across its capacity. It takes out, for each class up
// to maxBytes, one buffer more than the partial messages e ever held at
// once — more than the pool can hold of the class — checks them, and
// puts them back.
func assertZeroPool(t *testing.T, e *Endpoint, maxBytes int) {
	t.Helper()
	depth := len(e.pools.partials) + len(e.partials) + 1
	for size := 1; size < 2*maxBytes; size *= 2 {
		var taken [][]byte
		for range depth {
			b := e.pools.zero.Get(size)
			taken = append(taken, b)
			if !bytes.Equal(b[:cap(b)], make([]byte, cap(b))) {
				t.Fatalf("pooled reassembly buffer (cap %d) holds a non-zero byte", cap(b))
			}
		}
		for _, b := range taken {
			e.pools.zero.Put(b)
		}
	}
}

// TestReassemblyBuffersStayZero: a lossy, reordering link — reliable and
// datagram, the datagram side garbage-collecting partials that lost a
// fragment — delivers every message's exact bytes, heads and fills, and
// leaves every pooled reassembly buffer all zero.
func TestReassemblyBuffersStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var msgs []fillMsg
	for i := 0; i < 120; i++ {
		head := make([]byte, 1+rng.Intn(2*MTU))
		rng.Read(head)
		msgs = append(msgs, fillMsg{head, []int{0, 6000, 24000}[i%3]})
	}
	for _, reliable := range []bool{true, false} {
		clk := simclock.New()
		delivered := 0
		conn := Connect(clk, 7, Options{Reliable: reliable},
			func([]byte, uint64, time.Duration) {},
			func(p []byte, seq uint64, _ time.Duration) {
				if !bytes.Equal(p, msgs[seq-1].bytes()) {
					t.Fatalf("reliable=%v: message %d delivered with the wrong bytes", reliable, seq)
				}
				delivered++
			})
		if err := conn.Links.ApplyBoth(netem.Rule{Delay: 10 * time.Millisecond, Jitter: 9 * time.Millisecond, Loss: 0.03}); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := conn.A.SendFill(m.head, m.fill); err != nil {
				t.Fatal(err)
			}
			clk.Advance(20 * time.Millisecond)
		}
		clk.Advance(30 * time.Second)
		st := conn.B.Stats()
		if reliable && (delivered != len(msgs) || st.OutOfOrderHeld == 0) {
			t.Fatalf("reliable: delivered %d of %d, %d held out of order", delivered, len(msgs), st.OutOfOrderHeld)
		}
		if !reliable && (delivered == len(msgs) || delivered == 0 || len(conn.B.partials) > 33) {
			t.Fatalf("datagram: delivered %d of %d with %d partials left; want some lost and the rest collected", delivered, len(msgs), len(conn.B.partials))
		}
		for id, pm := range conn.B.partials {
			delete(conn.B.partials, id)
			conn.B.pools.putPartial(pm)
		}
		assertZeroPool(t, conn.B, 20*MTU)
	}
}

// TestInconsistentCountClearsBuffer: a fragment that disagrees with its
// partial message's fragment count drops the message, and the head bytes
// already written do not leak into the next reassembly; nor do a
// one-fragment message's.
func TestInconsistentCountClearsBuffer(t *testing.T) {
	clk := simclock.New()
	var got []byte
	ep := NewEndpoint(clk, Options{Reliable: false}, func(p []byte, _ uint64, _ time.Duration) { got = bytes.Clone(p) })
	frag := func(msgID uint32, idx, count int, head []byte, zeros int) netem.Packet {
		wire := make([]byte, fragFrameLen(len(head)))
		putFragment(wire, FrameDatagram, 1, 0, msgID, idx, count, head, zeros)
		return netem.Packet{Payload: wire, ZeroAt: len(wire) - trailerLen, Zeros: zeros}
	}
	ep.HandlePacket(frag(1, 0, 2, bytes.Repeat([]byte{0xEE}, MTU), 0))
	ep.HandlePacket(frag(1, 1, 3, nil, MTU))
	if st := ep.Stats(); st.CorruptDropped != 1 || len(ep.partials) != 0 {
		t.Fatalf("inconsistent count: %d corrupt, %d partials held", st.CorruptDropped, len(ep.partials))
	}
	assertZeroPool(t, ep, 3*MTU)
	ep.HandlePacket(frag(2, 1, 2, nil, 10))
	ep.HandlePacket(frag(2, 0, 2, []byte{1}, MTU-1))
	if want := append([]byte{1}, make([]byte, MTU+9)...); !bytes.Equal(got, want) {
		t.Fatalf("next message delivered %d bytes, want a 1 and %d zeros", len(got), MTU+9)
	}
	assertZeroPool(t, ep, 3*MTU)
	// A one-fragment message with zeros goes through a zeroed buffer too.
	ep.HandlePacket(frag(3, 0, 1, []byte{0xAB, 0xCD}, 5))
	if want := []byte{0xAB, 0xCD, 0, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("one-fragment message delivered %x, want %x", got, want)
	}
	assertZeroPool(t, ep, 3*MTU)
}
