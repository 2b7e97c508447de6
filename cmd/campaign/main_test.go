package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/opsflags"
	"teledrive/internal/rds"
	"teledrive/internal/trace"
)

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-plan", "bogus"}); err == nil {
		t.Fatal("unknown plan accepted")
	}
	if err := run([]string{"-workers", "x"}); err == nil {
		t.Fatal("non-integer workers accepted")
	}
}

func TestRunSpecOnly(t *testing.T) {
	// -spec prints Table I and exits before any simulation, so flag
	// plumbing (including -workers) parses without running a campaign.
	if err := run([]string{"-spec", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConnectRefused(t *testing.T) {
	// -connect flips the binary into worker mode; a dead coordinator
	// address must surface as a dial error, not a local campaign run.
	err := run([]string{"-connect", "127.0.0.1:1", "-worker-id", "w"})
	if err == nil || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("want a dial error from -connect to a dead address, got %v", err)
	}
}

// resultWithFailedInjections fabricates a campaign result whose faulty
// run refused n injections.
func resultWithFailedInjections(n int) *campaign.Result {
	return &campaign.Result{
		Subjects: []campaign.SubjectResult{{
			Runs: []campaign.ScenarioResult{{
				Golden: &core.Result{Outcome: &rds.Outcome{Log: &trace.RunLog{}}},
				Faulty: &core.Result{Outcome: &rds.Outcome{Log: &trace.RunLog{}, FailedInjections: n}},
			}},
		}},
	}
}

// strictFlags registers campaign's ops flags and parses args.
func strictFlags(t *testing.T, args ...string) *opsflags.Flags {
	t.Helper()
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	ops := opsflags.Register(fs, "campaign").WithStrict()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestStrictFailsOnFailedInjections is the regression test for the
// historical bug: campaign exited 0 even when fault injections failed,
// so CI never saw invalid test executions. -strict must turn them into
// a nonzero exit.
func TestStrictFailsOnFailedInjections(t *testing.T) {
	res := resultWithFailedInjections(3)
	if got := res.TotalFailedInjections(); got != 3 {
		t.Fatalf("TotalFailedInjections = %d, want 3", got)
	}

	err := strictFlags(t, "-strict").CheckStrict(res.TotalFailedInjections())
	if err == nil {
		t.Fatal("-strict must fail when injections failed")
	}
	if !strings.Contains(err.Error(), "3 fault injection(s) failed") {
		t.Fatalf("unhelpful -strict error: %v", err)
	}

	// Without -strict the legacy exit-0 behavior is preserved (plus a
	// stderr warning, not asserted here).
	if err := strictFlags(t).CheckStrict(res.TotalFailedInjections()); err != nil {
		t.Fatalf("non-strict mode must not fail: %v", err)
	}
}

func TestStrictPassesOnCleanCampaign(t *testing.T) {
	if err := strictFlags(t, "-strict").CheckStrict(resultWithFailedInjections(0).TotalFailedInjections()); err != nil {
		t.Fatalf("clean campaign must pass -strict: %v", err)
	}
}

// TestExportLogsPerDrive runs a one-subject campaign with -logs and
// -csv sinks: every golden and faulty drive writes one JSON log and one
// CSV set, and each JSON log, loaded back, fingerprints to its cell's
// Outcome.Fingerprint — the export is the full log, not what the
// campaign result keeps of it.
func TestExportLogsPerDrive(t *testing.T) {
	t5, _ := driver.SubjectByName("T5")
	p, err := campaign.BuildPlan(campaign.Config{
		Seed: 31, Plan: campaign.PlanPaper, Subjects: []driver.Profile{t5},
		ApplyPaperExclusions: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	logsDir, csvDir := t.TempDir(), t.TempDir()
	exportLogs(p, logsDir, csvDir)
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}

	drives := 0
	for _, c := range p.Cells {
		run := res.Subjects[c.Subject].Runs[c.Scenario]
		r := run.Golden
		if c.Kind == campaign.CellFaulty {
			r = run.Faulty
		}
		name := fmt.Sprintf("T5_%s_%s", c.Spec.Scenario.Name, c.Kind)
		log, err := trace.LoadJSONFile(filepath.Join(logsDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Ego) == 0 {
			t.Fatalf("%s: exported log has no ego records", name)
		}
		if got, want := trace.Fingerprint(log), r.Outcome.Fingerprint; got != want {
			t.Fatalf("%s: exported log fingerprints to %s, the drive to %s", name, got, want)
		}
		for _, f := range []string{"ego.csv", "others.csv", "collisions.csv", "lane_invasions.csv", "faults.csv"} {
			if _, err := os.Stat(filepath.Join(csvDir, name, f)); err != nil {
				t.Fatal(err)
			}
		}
		drives++
	}
	for _, dir := range []string{logsDir, csvDir} {
		if entries, _ := os.ReadDir(dir); len(entries) != drives {
			t.Fatalf("%s holds %d entries, want one per drive (%d)", dir, len(entries), drives)
		}
	}
	if drives != 6 {
		t.Fatalf("%d drives exported, want 3 scenarios × golden/faulty", drives)
	}
}
