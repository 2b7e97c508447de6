package transport

import (
	"bytes"
	"testing"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// FuzzDecodeFrame asserts the frame decoder never panics on arbitrary
// input and that accepted frames re-encode to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	good, _ := EncodeFrame(Frame{Type: FrameData, Seq: 7, Timestamp: time.Second, Payload: []byte("seed")})
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	mut := make([]byte, len(good))
	copy(mut, good)
	mut[5] ^= 0x10
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// fragPayload returns the frame payload (fragment header ‖ chunk) that
// putFragment writes for one fragment.
func fragPayload(msgID uint32, idx, count int, chunk []byte) []byte {
	buf := make([]byte, fragFrameLen(len(chunk)))
	putFragment(buf, FrameData, 1, 0, msgID, idx, count, chunk, 0)
	return buf[headerLen : len(buf)-trailerLen]
}

// FuzzParseFragment asserts the fragment parser never panics and that
// an accepted fragment survives a round trip through the encoder:
// putFragment of the parsed (msgID, idx, count, chunk), decoded and
// parsed again, yields the same fields, and the same bytes whenever the
// input's flags byte is the one the encoder writes.
func FuzzParseFragment(f *testing.F) {
	f.Add(fragPayload(42, 0, 1, []byte("hello fragment")))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, fragHeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgID, idx, count, chunk, ok := parseFragment(data)
		if !ok {
			return
		}
		if idx >= count {
			t.Fatalf("parser accepted idx %d ≥ count %d", idx, count)
		}
		if len(chunk) > len(data) {
			t.Fatal("chunk longer than input")
		}
		if len(chunk) > MaxPayload-fragHeaderLen {
			return
		}
		wire := make([]byte, fragFrameLen(len(chunk)))
		putFragment(wire, FrameData, 9, time.Second, msgID, idx, count, chunk, 0)
		fr, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("re-encoded fragment does not decode: %v", err)
		}
		m2, i2, c2, ch2, ok := parseFragment(fr.Payload)
		if !ok || m2 != msgID || i2 != idx || c2 != count || !bytes.Equal(ch2, chunk) {
			t.Fatalf("round trip: got (%d,%d,%d,%d B,%v), want (%d,%d,%d,%d B)", m2, i2, c2, len(ch2), ok, msgID, idx, count, len(chunk))
		}
		if fr.Payload[0] == data[0] && !bytes.Equal(fr.Payload, data) {
			t.Fatalf("round trip changed bytes:\n in  %x\n out %x", data, fr.Payload)
		}
	})
}

// rxFrame builds one op of FuzzEndpointReceive's input: a valid-CRC
// fragment frame of type typ with the given fields. lenSel picks the
// chunk length: 0 MTU, 1 MTU+1, 2 MTU−1, 3 empty, otherwise lenSel.
func rxFrame(typ, seq, msgID, idx, count, lenSel byte) []byte {
	return []byte{1, typ, seq, msgID, idx, count, lenSel, 0x5A}
}

// hostileZeroAt and hostileZeros are the elision fields op 3 of
// FuzzEndpointReceive picks from, indexed by a byte: in range or not,
// negative and huge. A negative entry below -1 is relative to the
// payload's length.
var (
	hostileZeroAt = []int{-1, 0, -2, -5, -6, -7, 1 << 40, -1 << 40}
	hostileZeros  = []int{-1, 0, 1, MTU, MaxPayload, MaxPayload + 1, 1 << 40, -1 << 40}
)

// FuzzEndpointReceive feeds arbitrary packet streams to the HandlePacket
// of a reliable and of a datagram endpoint. Nothing may panic, and no
// packet may be silently lost: each one is counted (corrupt, duplicate,
// held out of order, an ACK), completes a delivery, or is stored as a
// reassembly chunk; a packet whose ZeroAt or Zeros is out of range is
// counted corrupt. Input ops: 0 mod 4 is a raw frame (a length byte,
// then the bytes); anything else is a valid-CRC fragment frame built
// from the next seven bytes, so the fuzzer reaches the reassembler. Op
// 2 mod 4 elides the frame's chunk, when it is zeros, as transmit does;
// op 3 mod 4 takes two more bytes that pick its ZeroAt and Zeros from
// the hostile tables.
func FuzzEndpointReceive(f *testing.F) {
	two := append(rxFrame(byte(FrameData), 1, 3, 0, 2, 0), rxFrame(byte(FrameData), 2, 3, 1, 2, 40)...)
	f.Add(two)
	f.Add(append(rxFrame(byte(FrameDatagram), 1, 5, 1, 2, 7), rxFrame(byte(FrameDatagram), 1, 5, 0, 2, 0)...))
	f.Add(rxFrame(byte(FrameData), 1, 4, 0, 2, 2)) // non-last chunk short of MTU
	f.Add(rxFrame(byte(FrameData), 1, 4, 1, 2, 1)) // last chunk over MTU
	f.Add(rxFrame(byte(FrameData), 3, 4, 0, 1, 9)) // gap: held
	f.Add(append(two, two...))                     // duplicate frames
	dgram := rxFrame(byte(FrameDatagram), 1, 6, 0, 2, 0)
	f.Add(append(dgram, dgram...))                                                                     // duplicate datagram chunk
	f.Add(append(rxFrame(byte(FrameData), 1, 3, 0, 2, 0), rxFrame(byte(FrameData), 2, 3, 0, 2, 0)...)) // same chunk, new seq
	f.Add([]byte{0, 5, 0x7D, 0x5A, 1, 2, 3})                                                           // raw garbage
	f.Add(append(rxFrame(byte(FrameAck), 0, 0, 0, 0, 3), rxFrame(9, 1, 0, 0, 1, 3)...))
	f.Add([]byte{2, byte(FrameData), 1, 3, 0, 2, 0, 0, 2, byte(FrameData), 2, 3, 1, 2, 40, 0})            // elided zeros, reassembled
	f.Add([]byte{2, byte(FrameDatagram), 1, 5, 0, 1, 9, 0})                                               // elided one-fragment message
	f.Add([]byte{3, byte(FrameData), 1, 3, 0, 2, 0, 0, 3, 2, 3, byte(FrameData), 1, 3, 0, 2, 0, 0, 0, 6}) // hostile fields

	f.Fuzz(func(t *testing.T, data []byte) {
		var pkts []netem.Packet
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%4 == 0 {
				if len(data) == 0 {
					break
				}
				n := min(int(data[0]), len(data)-1)
				pkts = append(pkts, netem.Packet{Payload: data[1 : 1+n]})
				data = data[1+n:]
				continue
			}
			if len(data) < 7 || (op%4 == 3 && len(data) < 9) {
				break
			}
			typ, seq, msgID, idx, count, lenSel, fill := data[0], data[1], data[2], data[3], data[4], data[5], data[6]
			data = data[7:]
			n := int(lenSel)
			switch lenSel {
			case 0:
				n = MTU
			case 1:
				n = MTU + 1
			case 2:
				n = MTU - 1
			case 3:
				n = 0
			}
			payload := append([]byte{0, 0, 0, 0, msgID % 8, 0, idx % 8, 0, count % 8}, bytes.Repeat([]byte{fill}, n)...)
			wire, err := EncodeFrame(Frame{Type: FrameType(typ % 4), Seq: uint64(seq % 16), Timestamp: time.Duration(seq), Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			pkt := netem.Packet{Payload: wire}
			switch op % 4 {
			case 2:
				if fill == 0 {
					body := len(wire) - trailerLen
					pkt = netem.Packet{Payload: append(wire[:body-n:body-n], wire[body:]...), ZeroAt: body - n, Zeros: n}
				}
			case 3:
				pkt.ZeroAt = hostileZeroAt[int(data[0])%len(hostileZeroAt)]
				if pkt.ZeroAt < -1 && pkt.ZeroAt > -8 {
					pkt.ZeroAt += len(wire) + 1
				}
				pkt.Zeros = hostileZeros[int(data[1])%len(hostileZeros)]
				data = data[2:]
			}
			pkts = append(pkts, pkt)
		}
		for _, reliable := range []bool{true, false} {
			clk := simclock.New()
			ep := NewEndpoint(clk, Options{Name: "rx", Reliable: reliable}, func(p []byte, _ uint64, _ time.Duration) {
				if len(p) > maxFragments*MTU {
					t.Fatalf("delivered %d bytes, over %d fragments of MTU", len(p), maxFragments)
				}
			})
			ep.AttachLink(netem.NewLink("sink", clk, 1, func(netem.Packet) {}))
			for i, pkt := range pkts {
				before := ep.Stats()
				stored := chunkStored(ep, pkt)
				ep.HandlePacket(pkt)
				after := ep.Stats()
				if !elisionInRange(pkt) && after.CorruptDropped != before.CorruptDropped+1 {
					t.Fatalf("reliable=%v: packet %d (%d zeros at %d of %d B) not counted corrupt", reliable, i, pkt.Zeros, pkt.ZeroAt, len(pkt.Payload))
				}
				counted := after.CorruptDropped > before.CorruptDropped ||
					after.DuplicateDrops > before.DuplicateDrops ||
					after.OutOfOrderHeld > before.OutOfOrderHeld ||
					after.AcksReceived > before.AcksReceived ||
					after.MsgsDelivered > before.MsgsDelivered
				if !counted && (stored || !chunkStored(ep, pkt)) {
					t.Fatalf("reliable=%v: packet %d (%d B, header %x) silently lost", reliable, i, len(pkt.Payload), pkt.Payload[:min(len(pkt.Payload), headerLen)])
				}
			}
			assertZeroPool(t, ep, 8*MTU) // count is taken mod 8
		}
	})
}

// elisionInRange reports whether pkt's elided zeros lie inside its
// payload, so its wire bytes exist.
func elisionInRange(pkt netem.Packet) bool {
	return pkt.ZeroAt >= 0 && pkt.ZeroAt <= len(pkt.Payload) && pkt.Zeros >= 0 && pkt.Zeros <= MaxPayload
}

// chunkStored reports whether pkt's wire bytes decode to a fragment
// whose chunk the endpoint holds in a partial message.
func chunkStored(e *Endpoint, pkt netem.Packet) bool {
	if !elisionInRange(pkt) {
		return false
	}
	fr, err := DecodeFrame(pkt.AppendWire(nil))
	if err != nil {
		return false
	}
	msgID, idx, count, _, ok := parseFragment(fr.Payload)
	if !ok {
		return false
	}
	p := e.partials[msgID]
	return p != nil && len(p.got) == count && p.got[idx]
}
