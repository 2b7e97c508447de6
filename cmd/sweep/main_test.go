package main

import (
	"flag"
	"strings"
	"testing"

	"teledrive/internal/opsflags"
	"teledrive/internal/validity"
)

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-subject", "T99"}); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if err := run([]string{"-env", "mars"}); err == nil {
		t.Fatal("unknown environment accepted")
	}
}

// TestStrictFailsOnFailedInjections mirrors cmd/campaign's -strict
// regression test: a sweep whose points report refused fault injections
// must exit nonzero under -strict and keep the legacy exit-0 (warn
// only) behavior without it.
func TestStrictFailsOnFailedInjections(t *testing.T) {
	flags := func(args ...string) *opsflags.Flags {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		ops := opsflags.Register(fs, "sweep").WithStrict()
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	err := flags("-strict").CheckStrict(3)
	if err == nil {
		t.Fatal("-strict must fail when injections failed")
	}
	if !strings.Contains(err.Error(), "3 fault injection(s) failed") {
		t.Fatalf("unhelpful -strict error: %v", err)
	}
	if err := flags().CheckStrict(3); err != nil {
		t.Fatalf("non-strict mode must not fail: %v", err)
	}
	if err := flags("-strict").CheckStrict(0); err != nil {
		t.Fatalf("clean sweep must pass -strict: %v", err)
	}
}

func TestGradeGlyphs(t *testing.T) {
	// Every grade has a distinct glyph.
	seen := map[string]bool{}
	for g := 1; g <= 5; g++ {
		glyph := gradeGlyph(validity.Drivability(g))
		if seen[glyph] {
			t.Fatalf("glyph %q reused", glyph)
		}
		seen[glyph] = true
	}
}
