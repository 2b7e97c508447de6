package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"teledrive/internal/core"
	"teledrive/internal/journal"
	"teledrive/internal/rds"
	"teledrive/internal/trace"
)

// journalMagic identifies a campaignd checkpoint file.
const journalMagic = "teledrive-campaignd"

// journalEntry is one completed cell: its index, the worker-measured
// wall-clock cost, and the full outcome JSON as produced by the worker.
type journalEntry struct {
	Cell      int             `json:"cell"`
	Worker    string          `json:"worker,omitempty"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Outcome   json.RawMessage `json:"outcome"`
}

// cellJournal is the coordinator's crash-recovery log: a journal file
// pinned to the plan digest and cell count, plus the result the
// campaign keeps of every journaled cell. All access is from the
// coordinator event loop.
type cellJournal struct {
	file    *journal.Journal
	results map[int]*core.Result
}

// keepFunc turns a cell's decoded outcome into the result the campaign
// keeps (the coordinator analyses it and drops the per-tick series).
type keepFunc func(cell int, out *rds.Outcome, elapsed time.Duration) *core.Result

// openJournal opens (or creates) the journal at path and replays it,
// passing every replayed outcome through keep. digest/cells identify
// the current plan; a journal written for a different plan is an
// error, not a silent restart. An empty path returns an in-memory
// journal (no crash recovery — tests and one-shot runs).
func openJournal(path, digest string, cells int, keep keepFunc) (*cellJournal, error) {
	j := &cellJournal{results: make(map[int]*core.Result)}
	hdr := journal.Header{Journal: journalMagic, V: 1, Digest: digest, Cells: &cells}
	f, err := journal.Open(path, hdr, func(e journalEntry) error {
		if e.Cell < 0 || e.Cell >= cells {
			return fmt.Errorf("cell %d out of range", e.Cell)
		}
		if _, dup := j.results[e.Cell]; dup {
			return nil // first write wins, even across restarts
		}
		out, err := decodeOutcome(e.Outcome)
		if err != nil {
			return err
		}
		j.results[e.Cell] = keep(e.Cell, out, time.Duration(e.ElapsedNS))
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.file = f
	return j, nil
}

// append records one completed cell: its kept result in memory and the
// raw entry as one journal line.
func (j *cellJournal) append(e journalEntry, r *core.Result) error {
	j.results[e.Cell] = r
	return j.file.Append(e)
}

func (j *cellJournal) close() error { return j.file.Close() }

// decodeOutcome parses a worker-produced outcome JSON and recomputes
// its Fingerprint, which stays off the wire, from the decoded log. The
// round-trip is exact: Go's JSON encoder emits the shortest float64
// representation that parses back to the same bits, so a decoded run
// log fingerprints identically to the in-process original (the
// distributed-equivalence golden pins this).
func decodeOutcome(raw json.RawMessage) (*rds.Outcome, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("campaignd: empty outcome")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var out rds.Outcome
	if err := dec.Decode(&out); err != nil && err != io.EOF {
		return nil, fmt.Errorf("campaignd: decode outcome: %w", err)
	}
	if out.Log == nil {
		return nil, fmt.Errorf("campaignd: outcome missing run log")
	}
	out.Fingerprint = trace.Fingerprint(out.Log)
	return &out, nil
}
