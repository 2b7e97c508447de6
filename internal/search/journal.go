package search

import (
	"fmt"

	"teledrive/internal/journal"
)

// journalMagic identifies an adversarial-search journal file.
const journalMagic = "teledrive-search"

// Entry is one evaluated cell of the search trajectory. The trajectory
// is a pure function of the search options, so (Gen, Slot) fully
// identifies a cell: a resumed search re-proposes the same points and
// reuses the journaled Signals instead of re-simulating.
type Entry struct {
	Gen   int   `json:"gen"`
	Slot  int   `json:"slot"`
	Point []int `json:"point"`
	// Index is the point's flattened grid index.
	Index int `json:"index"`
	// Weight is the Horvitz–Thompson importance weight u(x)/q(x) of this
	// draw.
	Weight float64 `json:"weight"`
	// Uniform marks draws taken on the eps-mixture's uniform branch (the
	// held-out cross-check stratum).
	Uniform bool `json:"uniform,omitempty"`
	// Criticality is the cell's scalar score under the search weights.
	Criticality float64 `json:"crit"`
	Signals     Signals `json:"signals"`
}

// GenSlot keys a journal entry by its trajectory position.
type GenSlot struct{ Gen, Slot int }

// Journal is the search's crash-recovery log: a journal file pinned to
// the search digest, with one line per evaluated cell, written strictly
// in (gen, slot) order. Because the search trajectory is deterministic,
// a journal resumed mid-run and driven to completion is byte-identical
// to one written in a single run — the same-seed identity check in CI
// compares the files directly. All access is from the driver loop.
type Journal struct {
	file    *journal.Journal
	entries map[GenSlot]Entry
}

// OpenJournal opens (or creates) the journal at path and replays it.
// digest identifies the current search configuration; a journal written
// for a different configuration is an error, not a silent restart. An
// empty path returns an in-memory journal (no crash recovery).
func OpenJournal(path, digest string) (*Journal, error) {
	j := &Journal{entries: make(map[GenSlot]Entry)}
	hdr := journal.Header{Journal: journalMagic, V: 1, Digest: digest}
	f, err := journal.Open(path, hdr, func(e Entry) error {
		// Entries are written once each, in order: a repeat is damage.
		key := GenSlot{e.Gen, e.Slot}
		if _, dup := j.entries[key]; dup {
			return fmt.Errorf("duplicate cell gen %d slot %d", e.Gen, e.Slot)
		}
		j.entries[key] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.file = f
	return j, nil
}

// Cached returns the journaled entry for a trajectory position, if any.
func (j *Journal) Cached(gen, slot int) (Entry, bool) {
	e, ok := j.entries[GenSlot{gen, slot}]
	return e, ok
}

// Len counts journaled cells.
func (j *Journal) Len() int { return len(j.entries) }

// Append records one evaluated cell as one journal line. Appending a
// position that is already journaled is a no-op (the resume path
// re-proposes journaled cells).
func (j *Journal) Append(e Entry) error {
	key := GenSlot{e.Gen, e.Slot}
	if _, dup := j.entries[key]; dup {
		return nil
	}
	j.entries[key] = e
	return j.file.Append(e)
}

// Close closes the backing file, if any.
func (j *Journal) Close() error { return j.file.Close() }
