package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"teledrive/internal/transport"
)

// FuzzWireProtocol throws arbitrary chunk sequences at the
// coordinator's message decoder: the input is read as records of
// flags(1) len(1) body, each framed as one stream message, so the
// fuzzer spends its time on what campaignd adds to the framed stream
// (chunk reassembly, inflate limits, JSON) rather than on CRCs;
// FuzzStream in transport covers the framing. The invariant is the one
// the coordinator's connection handler relies on: readMsg never
// panics, never spins, and every failure is either a clean io.EOF
// (end of stream at a message boundary) or a transport.ErrProtocol the
// caller counts on campaignd_protocol_errors_total before closing the
// connection.
func FuzzWireProtocol(f *testing.F) {
	// Seed with valid traffic so the fuzzer starts near the interesting
	// surface: every message type, compressed bodies, chunked bodies.
	encode := func(m *msg) []byte {
		var buf bytes.Buffer
		if err := newSender(&buf).send(m); err != nil {
			f.Fatal(err)
		}
		return records(buf.Bytes())
	}
	hello := []byte(`{"t":"hello","worker":"w1","capacity":4,"cell":0}`)
	bigResult := encode(&msg{T: msgResult, Cell: 2,
		Outcome: []byte(`{"blob":"` + strings.Repeat("x", 64<<10) + `"}`)})
	seeds := [][]byte{
		encode(&msg{T: msgHello, Worker: "w1", Capacity: 4}),
		encode(&msg{T: msgLease, Cell: 3}),
		encode(&msg{T: msgHeartbeat}),
		encode(&msg{T: msgDone}),
		encode(&msg{T: msgError, Cell: 1, Error: "boom"}),
		encode(&msg{T: msgResult, Cell: 0, ElapsedNS: 5,
			Outcome: []byte(`{"Log":{"subject":"T5"}}`)}),
		// Compressed (large, repetitive) body.
		bigResult,
		// Two messages back to back.
		append(encode(&msg{T: msgHeartbeat}), encode(&msg{T: msgDone})...),
		// One message in three chunks.
		append(append(record(flagMore, hello[:5]), record(flagMore, hello[5:20])...), record(0, hello[20:])...),
		// The compressed body cut in half.
		record(bigResult[0], bigResult[2:2+int(bigResult[1])/2]),
		// A dangling continuation, and a body that is not JSON.
		record(flagMore, []byte("{")),
		record(0, []byte("GET / HTTP/1.1\r\n\r\n")),
		// The coordinator's abort, with a short and a compressed reason.
		encode(&msg{T: msgAbort, Error: "campaign: subject T5 faulty follow-vehicle: boom"}),
		encode(&msg{T: msgAbort, Error: strings.Repeat("campaignd: cell 3 lost its worker ", 200)}),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var stream bytes.Buffer
		sw := transport.NewStreamWriter(&stream)
		for len(data) >= 2 {
			n := min(int(data[1]), len(data)-2)
			if err := sw.WriteMsg(0, data[0], data[2:2+n]); err != nil {
				t.Fatal(err)
			}
			data = data[2+n:]
		}
		sr := transport.NewStreamReader(&stream)
		for i := 0; ; i++ {
			m, err := readMsg(sr)
			if err != nil {
				if err != io.EOF && !errors.Is(err, transport.ErrProtocol) {
					t.Fatalf("readMsg leaked a non-protocol error: %v", err)
				}
				return
			}
			if m.T == "" {
				t.Fatal("readMsg returned a message with no type")
			}
			if i > 1024 {
				t.Fatal("decoder failed to make progress through bounded input")
			}
		}
	})
}

// record is one FuzzWireProtocol record: a chunk of at most 255 bytes.
func record(flags byte, body []byte) []byte {
	return append([]byte{flags, byte(len(body))}, body...)
}

// records re-cuts the chunks of a sender's stream into FuzzWireProtocol
// records, linking the pieces of a chunk with flagMore.
func records(stream []byte) []byte {
	var out []byte
	sr := transport.NewStreamReader(bytes.NewReader(stream))
	for {
		m, err := sr.ReadMsg()
		if err != nil {
			return out
		}
		for body := m.Body; ; {
			n := min(len(body), 255)
			flags := m.Tag
			if n < len(body) {
				flags |= flagMore
			}
			out = append(out, record(flags, body[:n])...)
			if body = body[n:]; len(body) == 0 {
				break
			}
		}
	}
}

// FuzzWireRoundTrip drives the encoder with fuzzed message contents and
// checks the decode is exact — the property the distributed equivalence
// rests on at the codec layer.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("hello", "w", 4, int64(17), []byte(`{"Log":null}`))
	f.Add("result", "", 0, int64(0), []byte{})
	f.Add("err", strings.Repeat("n", 300), -5, int64(-1), []byte(`{"a":[1,2,3]}`))
	f.Fuzz(func(t *testing.T, typ, worker string, cell int, elapsed int64, outcome []byte) {
		if typ == "" {
			typ = "x"
		}
		in := &msg{T: typ, Worker: worker, Cell: cell, ElapsedNS: elapsed}
		if len(outcome) > 0 {
			if !json.Valid(outcome) {
				return // RawMessage must be valid JSON for the envelope to marshal
			}
			in.Outcome = outcome
		}
		var buf bytes.Buffer
		if err := newSender(&buf).send(in); err != nil {
			t.Skipf("unencodable input: %v", err)
		}
		out, err := readMsg(transport.NewStreamReader(&buf))
		if err != nil {
			t.Fatalf("decode of freshly encoded message failed: %v", err)
		}
		if out.T != in.T || out.Worker != in.Worker || out.Cell != in.Cell || out.ElapsedNS != in.ElapsedNS {
			t.Fatalf("round trip mangled fields: in %+v out %+v", in, out)
		}
	})
}
