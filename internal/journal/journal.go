// Package journal is teledrive's append-only checkpoint file: a JSONL
// file whose first line is a header pinning it to one exact
// configuration (by digest), followed by one flushed line per completed
// unit of work. The campaignd coordinator and the adversarial search
// both resume from it.
//
// Crash rule: a run can die mid-write, so the bytes after the last
// newline are a torn line. Open truncates them, and when no complete
// header line survives it truncates the file to zero and writes a fresh
// header. Appends therefore always continue from the last complete
// line, and a journal resumed any number of times and driven to
// completion is byte-identical to one written in a single run. A
// malformed *complete* line is real damage and fails loudly.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Header is the first line of a journal. Journal is the file's magic
// ("teledrive-<kind>"); Digest identifies the configuration the entries
// belong to; Cells, when non-nil, is checked as well (and omitted from
// the line when nil).
type Header struct {
	Journal string `json:"journal"`
	V       int    `json:"v"`
	Digest  string `json:"digest"`
	Cells   *int   `json:"cells,omitempty"`
}

// Journal is an open checkpoint file. A Journal opened with an empty
// path is in-memory: Append and Close do nothing.
type Journal struct {
	f *os.File
}

// Open opens (or creates) the journal at path and replays it: every
// complete entry line is decoded into a fresh E and passed to replay, in
// file order. A header for a different magic, digest or cell count is an
// error, not a silent restart; so is an entry that fails to decode or
// that replay rejects. Errors name the journal's kind (the magic without
// its "teledrive-" prefix). An empty path returns an in-memory journal.
func Open[E any](path string, h Header, replay func(E) error) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	kind := strings.TrimPrefix(h.Journal, "teledrive-")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: journal: %w", kind, err)
	}
	keep, err := load(f, h, kind, replay)
	if err == nil {
		err = resumeAt(f, keep, h)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// load reads and replays f, returning the byte length of the prefix to
// keep: everything up to the last newline, or zero when not even the
// header line is complete.
func load[E any](f *os.File, h Header, kind string, replay func(E) error) (int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("%s: journal: %w", kind, err)
	}
	end := bytes.LastIndexByte(data, '\n') + 1
	if end == 0 {
		return 0, nil
	}
	lines := bytes.Split(data[:end-1], []byte("\n"))
	var got Header
	if err := json.Unmarshal(lines[0], &got); err != nil || got.Journal != h.Journal {
		return 0, fmt.Errorf("%s: journal: not a %s journal (bad header)", kind, kind)
	}
	if got.Digest != h.Digest {
		return 0, fmt.Errorf("%s: journal was written for a different configuration (journal digest %.12s…, current digest %.12s…) — refusing to resume", kind, got.Digest, h.Digest)
	}
	if h.Cells != nil {
		n := 0
		if got.Cells != nil {
			n = *got.Cells
		}
		if n != *h.Cells {
			return 0, fmt.Errorf("%s: journal plan has %d cells, current plan has %d — refusing to resume", kind, n, *h.Cells)
		}
	}
	for i, line := range lines[1:] {
		var e E
		err := json.Unmarshal(line, &e)
		if err == nil {
			err = replay(e)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: journal line %d corrupt: %w", kind, i+2, err)
		}
	}
	return int64(end), nil
}

// resumeAt drops any torn tail, positions f for appending after the
// kept prefix, and writes a fresh header when nothing was kept.
func resumeAt(f *os.File, keep int64, h Header) error {
	if err := f.Truncate(keep); err != nil {
		return err
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return err
	}
	if keep > 0 {
		return nil
	}
	return writeLine(f, h)
}

// Append writes v as one JSONL line, in a single write to the file.
func (j *Journal) Append(v any) error {
	if j.f == nil {
		return nil
	}
	return writeLine(j.f, v)
}

func writeLine(f *os.File, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}

// Close closes the backing file, if any.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
