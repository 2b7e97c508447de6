// Package campaignd is the distributed campaign service: a coordinator
// process that serves a planned cell list to worker processes over TCP
// and merges their streamed results into the exact in-process campaign
// aggregation.
//
// The design exploits the plan/execute split (DESIGN.md §7): a campaign
// plan is a pure function of its Spec, so both sides rebuild the
// identical plan locally and only cell *indices* and per-cell outcomes
// cross the wire. A plan digest guards the assumption; a JSONL journal
// of completed cells makes a killed coordinator resumable; a lease
// state machine with bounded retry makes worker death survivable; and
// first-write-wins result acceptance makes duplicated results
// harmless. Final tables are bit-identical to
// `campaign -workers N` — enforced by the equivalence golden in
// testdata and the chaos suite.
package campaignd

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"teledrive/internal/transport"
)

// Wire message types. The protocol is a strict request/response-free
// exchange of typed messages; either side may close the connection at
// any point: the coordinator re-queues a lost connection's leases.
const (
	msgHello     = "hello"  // worker → coordinator: identity + capacity
	msgPlan      = "plan"   // coordinator → worker: campaign spec, plan digest, worker timeout
	msgLease     = "lease"  // coordinator → worker: run cell N
	msgResult    = "result" // worker → coordinator: cell N's outcome
	msgHeartbeat = "hb"     // worker → coordinator: liveness (keeps a busy worker inside its timeout)
	msgDone      = "done"   // coordinator → worker: campaign complete, disconnect
	msgError     = "err"    // worker → coordinator: cell N failed to run
	msgAbort     = "abort"  // coordinator → worker: campaign ended early, Error says why; disconnect
)

// msg is the single wire envelope; T discriminates which fields are
// meaningful. Cell deliberately has no omitempty: cell 0 is a valid
// index.
type msg struct {
	T string `json:"t"`

	// msgHello
	Worker   string `json:"worker,omitempty"`
	Capacity int    `json:"capacity,omitempty"`

	// msgPlan
	Spec   *Spec  `json:"spec,omitempty"`
	Digest string `json:"digest,omitempty"`
	Cells  int    `json:"cells,omitempty"`
	// TimeoutNS is the coordinator's worker timeout; the worker
	// heartbeats at a fixed fraction of it.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`

	// msgLease / msgResult / msgError / msgAbort
	Cell      int             `json:"cell"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
	Outcome   json.RawMessage `json:"outcome,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Envelope limits. A full-fidelity cell outcome serializes to ~10 MB of
// JSON — far beyond transport.MaxBody — so one logical message spans
// several messages of the transport framed stream: each carries one
// chunk of the (optionally deflate-compressed) JSON body, its tag holds
// the chunk flags, and the flagMore bit links chunks.
const (
	// maxMessage bounds a reassembled logical message (~6x the largest
	// observed outcome, so corrupted lengths fail fast instead of OOMing).
	maxMessage = 64 << 20
	// compressThreshold: bodies above it are deflated before chunking.
	compressThreshold = 4 << 10

	flagMore    = 0x01 // another chunk of this message follows
	flagDeflate = 0x02 // message body is deflate-compressed (first chunk)
)

// sender writes logical messages onto one framed stream. Safe for
// concurrent use: the stream writer frames one chunk per call, so mu
// spans every chunk of a message and the chunks of concurrent sends
// never interleave.
type sender struct {
	mu sync.Mutex
	sw *transport.StreamWriter
}

func newSender(w io.Writer) *sender {
	return &sender{sw: transport.NewStreamWriter(w)}
}

// send encodes m as JSON, compresses large bodies, and writes the body
// in chunks of at most transport.MaxBody bytes.
func (s *sender) send(m *msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("campaignd: encode %s: %w", m.T, err)
	}
	var flags byte
	if len(body) > compressThreshold {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(body); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		body = buf.Bytes()
		flags |= flagDeflate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for first := true; first || len(body) > 0; first = false {
		n := min(len(body), transport.MaxBody)
		chunkFlags := flags
		if n < len(body) {
			chunkFlags |= flagMore
		}
		if err := s.sw.WriteMsg(0, chunkFlags, body[:n]); err != nil {
			return err
		}
		body = body[n:]
	}
	return nil
}

// readMsg reassembles one logical message from sr. It returns io.EOF on
// a clean close at a message boundary, errors wrapping
// transport.ErrProtocol for every malformed input (bad framing, chunk
// overflow, a close after a flagMore chunk, invalid JSON), and the
// connection's own error for an I/O failure such as a read deadline —
// the input is hostile territory and must never panic (see
// FuzzWireProtocol).
func readMsg(sr *transport.StreamReader) (*msg, error) {
	var body []byte
	deflated := false
	for chunk := 0; ; chunk++ {
		sm, err := sr.ReadMsg()
		if err == io.EOF && chunk > 0 {
			return nil, transport.ProtocolErrorf("stream closed after chunk %d of a message", chunk)
		}
		if err != nil {
			return nil, err
		}
		if chunk == 0 {
			deflated = sm.Tag&flagDeflate != 0
		}
		if len(body)+len(sm.Body) > maxMessage {
			return nil, transport.ProtocolErrorf("message exceeds %d bytes", maxMessage)
		}
		body = append(body, sm.Body...)
		if sm.Tag&flagMore == 0 {
			break
		}
	}
	if deflated {
		fr := flate.NewReader(bytes.NewReader(body))
		inflated, err := io.ReadAll(io.LimitReader(fr, maxMessage+1))
		if err != nil {
			return nil, transport.ProtocolErrorf("inflate: %v", err)
		}
		if len(inflated) > maxMessage {
			return nil, transport.ProtocolErrorf("inflated message exceeds %d bytes", maxMessage)
		}
		body = inflated
	}
	var m msg
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, transport.ProtocolErrorf("invalid message JSON: %v", err)
	}
	if m.T == "" {
		return nil, transport.ProtocolErrorf("message missing type")
	}
	return &m, nil
}
