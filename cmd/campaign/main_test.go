package main

import (
	"flag"
	"strings"
	"testing"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
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
