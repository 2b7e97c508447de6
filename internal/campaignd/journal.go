package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"teledrive/internal/journal"
	"teledrive/internal/rds"
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
// pinned to the plan digest and cell count, plus the decoded result of
// every journaled cell. All access is from the coordinator event loop.
type cellJournal struct {
	file     *journal.Journal
	outcomes map[int]*rds.Outcome
	elapsed  map[int]int64
}

// openJournal opens (or creates) the journal at path and replays it.
// digest/cells identify the current plan; a journal written for a
// different plan is an error, not a silent restart. An empty path
// returns an in-memory journal (no crash recovery — tests and one-shot
// runs).
func openJournal(path, digest string, cells int) (*cellJournal, error) {
	j := &cellJournal{
		outcomes: make(map[int]*rds.Outcome),
		elapsed:  make(map[int]int64),
	}
	hdr := journal.Header{Journal: journalMagic, V: 1, Digest: digest, Cells: &cells}
	f, err := journal.Open(path, hdr, func(e journalEntry) error {
		if e.Cell < 0 || e.Cell >= cells {
			return fmt.Errorf("cell %d out of range", e.Cell)
		}
		if _, dup := j.outcomes[e.Cell]; dup {
			return nil // first write wins, even across restarts
		}
		out, err := decodeOutcome(e.Outcome)
		if err != nil {
			return err
		}
		j.outcomes[e.Cell] = out
		j.elapsed[e.Cell] = e.ElapsedNS
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.file = f
	return j, nil
}

// append records one completed cell: the decoded outcome in memory and
// the raw entry as one journal line.
func (j *cellJournal) append(e journalEntry, out *rds.Outcome) error {
	j.outcomes[e.Cell] = out
	j.elapsed[e.Cell] = e.ElapsedNS
	return j.file.Append(e)
}

func (j *cellJournal) close() error { return j.file.Close() }

// decodeOutcome parses a worker-produced outcome JSON. The round-trip
// is exact: Go's JSON encoder emits the shortest float64 representation
// that parses back to the same bits, so a decoded run log fingerprints
// identically to the in-process original (the distributed-equivalence
// golden pins this).
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
	return &out, nil
}
