package campaignd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"teledrive/internal/core"
	"teledrive/internal/rds"
)

// fakeOutcome builds a minimal valid outcome JSON (the journal only
// requires a decodable rds.Outcome with a non-nil run log).
func fakeOutcome(station float64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(
		`{"Log":{"subject":"T5","scenario":"s","run_type":"golden"},"FinalStation":%g}`, station))
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(path, "digest-1", 4, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalEntry{Cell: 2, Worker: "w1", ElapsedNS: 7, Outcome: fakeOutcome(10)}, mustKeep(t, fakeOutcome(10))); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalEntry{Cell: 0, Worker: "w2", ElapsedNS: 9, Outcome: fakeOutcome(20)}, mustKeep(t, fakeOutcome(20))); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	// The file format is fixed: journals written by earlier versions
	// must keep resuming.
	want := `{"journal":"teledrive-campaignd","v":1,"digest":"digest-1","cells":4}
{"cell":2,"worker":"w1","elapsed_ns":7,"outcome":` + string(fakeOutcome(10)) + `}
{"cell":0,"worker":"w2","elapsed_ns":9,"outcome":` + string(fakeOutcome(20)) + "}\n"
	if data, _ := os.ReadFile(path); string(data) != want {
		t.Fatalf("journal bytes changed:\n got %s\nwant %s", data, want)
	}

	// Reopen: both cells replay; later appends land after them.
	j2, err := openJournal(path, "digest-1", 4, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(j2.results) != 2 {
		t.Fatalf("replayed %d cells, want 2", len(j2.results))
	}
	if j2.results[2].Outcome.FinalStation != 10 || j2.results[0].Outcome.FinalStation != 20 {
		t.Fatal("replayed outcomes mangled")
	}
	if j2.results[2].Elapsed != 7 || j2.results[0].Elapsed != 9 {
		t.Fatal("replayed elapsed mangled")
	}
}

// keepOutcome keeps a decoded outcome as is; the journal tests need no
// plan to analyse against.
func keepOutcome(_ int, out *rds.Outcome, elapsed time.Duration) *core.Result {
	return &core.Result{Outcome: out, Elapsed: elapsed}
}

// mustKeep decodes raw as the coordinator does on a result message.
func mustKeep(t *testing.T, raw json.RawMessage) *core.Result {
	t.Helper()
	out, err := decodeOutcome(raw)
	if err != nil {
		t.Fatal(err)
	}
	return keepOutcome(0, out, 0)
}

func TestJournalFirstWriteWinsAcrossRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(path, "d", 2, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	// Two entries for the same cell (a crash window can journal a
	// duplicate): the first must win on replay.
	for _, station := range []float64{1, 2} {
		if err := j.append(journalEntry{Cell: 1, Outcome: fakeOutcome(station)}, mustKeep(t, fakeOutcome(station))); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	j2, err := openJournal(path, "d", 2, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if got := j2.results[1].Outcome.FinalStation; got != 1 {
		t.Fatalf("replay kept station %g, want the first write (1)", got)
	}
}

// TestJournalEarlierCorruptionFailsLoudly: a complete entry naming a
// cell outside the plan is damage, not something to skip.
func TestJournalEarlierCorruptionFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(path, "d", 2, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalEntry{Cell: 2, Outcome: fakeOutcome(1)}, mustKeep(t, fakeOutcome(1))); err != nil {
		t.Fatal(err)
	}
	j.close()
	if _, err := openJournal(path, "d", 2, keepOutcome); err == nil || !strings.Contains(err.Error(), "corrupt: cell 2 out of range") {
		t.Fatalf("out-of-range cell must fail loudly, got %v", err)
	}
}

func TestJournalRefusesDifferentPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(path, "digest-A", 4, keepOutcome)
	if err != nil {
		t.Fatal(err)
	}
	j.close()

	if _, err := openJournal(path, "digest-B", 4, keepOutcome); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("digest mismatch must refuse to resume, got %v", err)
	}
	if _, err := openJournal(path, "digest-A", 5, keepOutcome); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("cell-count mismatch must refuse to resume, got %v", err)
	}
	if _, err := openJournal(path, "digest-A", 4, keepOutcome); err != nil {
		t.Fatalf("matching plan must resume: %v", err)
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"not\":\"a journal\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(path, "d", 1, keepOutcome); err == nil || !strings.Contains(err.Error(), "not a campaignd journal") {
		t.Fatalf("foreign file must be rejected, got %v", err)
	}
}

func TestDecodeOutcomeRejectsMissingLog(t *testing.T) {
	if _, err := decodeOutcome(json.RawMessage(`{"FinalStation":1}`)); err == nil {
		t.Fatal("outcome without a run log must be rejected")
	}
	if _, err := decodeOutcome(nil); err == nil {
		t.Fatal("empty outcome must be rejected")
	}
}
