package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type entry struct {
	N   int    `json:"n"`
	Msg string `json:"msg,omitempty"`
}

// entries is the finished journal's content: lines of varied length,
// one with escaped bytes, so cut offsets land everywhere in a line.
var entries = []entry{{0, "a"}, {1, "bb"}, {2, "quote\" and\nnewline"}, {3, "dddd"}, {4, ""}}

// shape is one header layout in use: campaignd pins a cell count,
// search does not. line is the header's exact bytes, which must never
// change so journals written by earlier versions keep resuming.
type shape struct {
	name string
	hdr  Header
	line string
}

func shapes() []shape {
	cells := 6
	return []shape{
		{"cells", Header{Journal: "teledrive-campaignd", V: 1, Digest: "d1", Cells: &cells},
			`{"journal":"teledrive-campaignd","v":1,"digest":"d1","cells":6}`},
		{"no-cells", Header{Journal: "teledrive-search", V: 1, Digest: "d1"},
			`{"journal":"teledrive-search","v":1,"digest":"d1"}`},
	}
}

// open opens path and returns the entries it replayed; replay insists
// they come back in order.
func open(t *testing.T, path string, h Header) (*Journal, []entry) {
	t.Helper()
	var got []entry
	j, err := Open(path, h, func(e entry) error {
		if e.N != len(got) {
			return errors.New("out of order")
		}
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func appendAll(t *testing.T, j *Journal, es []entry) {
	t.Helper()
	for _, e := range es {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// finished writes the uncrashed journal for h and returns its bytes.
func finished(t *testing.T, path string, h Header) []byte {
	t.Helper()
	j, got := open(t, path, h)
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(got))
	}
	appendAll(t, j, entries)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashTwiceAtEveryOffset is the crash-resume property: cut a
// finished journal at every byte offset (inside the header too), resume
// and append some of the missing entries, tear the file again partway
// into the next line, resume and append the rest. The result must be
// byte-identical to the uncrashed journal.
func TestCrashTwiceAtEveryOffset(t *testing.T) {
	for _, sh := range shapes() {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			want := finished(t, filepath.Join(dir, "full.jsonl"), sh.hdr)
			if first, _, _ := strings.Cut(string(want), "\n"); first != sh.line {
				t.Fatalf("header bytes changed:\n got %s\nwant %s", first, sh.line)
			}
			path := filepath.Join(dir, "j.jsonl")
			for cut := 0; cut <= len(want); cut++ {
				if err := os.WriteFile(path, want[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				j, got := open(t, path, sh.hdr)
				n := max(0, bytes.Count(want[:cut], []byte("\n"))-1)
				if len(got) != n {
					t.Fatalf("cut %d: first resume replayed %d entries, want %d", cut, len(got), n)
				}
				mid := n + (len(entries)-n+1)/2
				appendAll(t, j, entries[n:mid])

				tear := []byte(`{"n":`)
				if mid < len(entries) {
					line, _ := json.Marshal(entries[mid])
					tear = line[:len(line)/2]
				}
				appendRaw(t, path, tear)
				j, got = open(t, path, sh.hdr)
				if len(got) != mid {
					t.Fatalf("cut %d: second resume replayed %d entries, want %d", cut, len(got), mid)
				}
				appendAll(t, j, entries[mid:])

				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("cut %d: resumed journal differs from uncrashed one:\n got %q\nwant %q", cut, data, want)
				}
			}
		})
	}
}

// TestOpenRefusesDamage covers the loud failures: damage in a complete
// line, and a header for another journal kind, digest or plan size.
// A refused journal is left untouched.
func TestOpenRefusesDamage(t *testing.T) {
	cells, search := shapes()[0], shapes()[1]
	seven := 7
	line := func(v any) string {
		b, _ := json.Marshal(v)
		return string(b) + "\n"
	}
	cases := []struct {
		name string
		sh   shape
		file string
		want string
	}{
		{"interior corruption", search, search.line + "\n" + "garbage line\n" + line(entries[1]), "search: journal line 2 corrupt"},
		{"replay rejects an entry", cells, cells.line + "\n" + line(entries[1]), "campaignd: journal line 2 corrupt: out of order"},
		{"foreign digest", search, line(Header{Journal: "teledrive-search", V: 1, Digest: "d2"}), "refusing to resume"},
		{"foreign cell count", cells, line(Header{Journal: "teledrive-campaignd", V: 1, Digest: "d1", Cells: &seven}), "refusing to resume"},
		{"missing cell count", cells, line(Header{Journal: "teledrive-campaignd", V: 1, Digest: "d1"}), "refusing to resume"},
		{"foreign magic", cells, search.line + "\n", "not a campaignd journal"},
		{"not a journal", search, "{\"not\":\"a journal\"}\n", "not a search journal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, []byte(tc.file+`{"torn`), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, tc.sh.hdr, func(e entry) error {
				if e.N != 0 {
					return errors.New("out of order")
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
			if data, _ := os.ReadFile(path); string(data) != tc.file+`{"torn` {
				t.Fatalf("refused journal was modified: %q", data)
			}
		})
	}
}

// TestInMemory: an empty path keeps no file and replays nothing.
func TestInMemory(t *testing.T) {
	j, err := Open("", shapes()[0].hdr, func(entry) error {
		t.Fatal("in-memory journal replayed an entry")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, entries)
}
