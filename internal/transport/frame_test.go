package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: FrameData, Seq: 42, Timestamp: 1500 * time.Millisecond, Payload: []byte("steer left")}
	buf, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Seq != f.Seq || got.Timestamp != f.Timestamp || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip: got %+v, want %+v", got, f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, seq uint64, ts int64, payload []byte) bool {
		fr := Frame{Type: FrameType(typ), Seq: seq, Timestamp: time.Duration(ts), Payload: payload}
		buf, err := EncodeFrame(fr)
		if err != nil {
			return false
		}
		got, err := DecodeFrame(buf)
		if err != nil {
			return false
		}
		return got.Type == fr.Type && got.Seq == fr.Seq &&
			got.Timestamp == fr.Timestamp && bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	buf, err := EncodeFrame(Frame{Type: FrameAck, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || len(got.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestFramePayloadTooBig(t *testing.T) {
	_, err := EncodeFrame(Frame{Type: FrameData, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
	if _, err := DecodeFrame(nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	buf, _ := EncodeFrame(Frame{Type: FrameData, Payload: []byte("x")})
	buf[0] ^= 0xFF
	if _, err := DecodeFrame(buf); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("err = %v, want ErrCorruptFrame", err)
	}
}

func TestEveryBitFlipDetected(t *testing.T) {
	// The whole point of the CRC: any single bit flip — netem's corrupt
	// fault — must be detected. The second frame is a full zero-filled
	// mid-fragment, whose zero run the checksum folds by table: a flip
	// there must fail decoding like any other.
	text, err := EncodeFrame(Frame{Type: FrameData, Seq: 99, Timestamp: time.Second, Payload: []byte("remote driving payload")})
	if err != nil {
		t.Fatal(err)
	}
	zeroFrag := make([]byte, fragFrameLen(MTU))
	putFragment(zeroFrag, FrameData, 99, time.Second, 7, 3, 18, make([]byte, MTU), 0)
	for _, buf := range [][]byte{text, zeroFrag} {
		if _, err := DecodeFrame(buf); err != nil {
			t.Fatalf("intact %d-byte frame rejected: %v", len(buf), err)
		}
		mut := make([]byte, len(buf))
		for bit := 0; bit < len(buf)*8; bit++ {
			copy(mut, buf)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("%d-byte frame: bit flip at %d went undetected", len(buf), bit)
			}
		}
	}
}

func TestDecodeRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		if f, err := DecodeFrame(buf); err == nil {
			// Astronomically unlikely; would indicate a broken check.
			t.Fatalf("random garbage decoded as %+v", f)
		}
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	buf, _ := EncodeFrame(Frame{Type: FrameData, Payload: make([]byte, 100)})
	if _, err := DecodeFrame(buf[:len(buf)-10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameData.String() != "DATA" || FrameAck.String() != "ACK" || FrameDatagram.String() != "DGRAM" {
		t.Fatal("frame type names wrong")
	}
	if FrameType(77).String() == "" {
		t.Fatal("unknown frame type should render")
	}
}
