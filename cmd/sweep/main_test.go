package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"

	"teledrive/internal/opsflags"
	"teledrive/internal/validity"
)

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-subject", "T99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown subject accepted")
	}
	if err := run([]string{"-env", "mars"}, io.Discard, io.Discard); err == nil {
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

// terminal is one buffer standing in for a terminal that shows both
// stdout and stderr; the progress line paints from its own goroutine.
type terminal struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *terminal) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

// TestReportFollowsProgressLine: with stdout and stderr on one terminal,
// the report prints only after the progress line has ended, so every
// "== " heading starts a line instead of trailing a half-painted
// progress line. Both environments run, and the progress line repaints
// while the first one does.
func TestReportFollowsProgressLine(t *testing.T) {
	var term terminal
	if err := run([]string{"-seed", "3", "-workers", "2"}, &term, &term); err != nil {
		t.Fatal(err)
	}
	out := term.buf.String()
	if strings.Count(out, "== ") != 2 || !strings.Contains(out, "\rpoints ") {
		t.Fatalf("want two report headings and a progress line, got:\n%q", out)
	}
	for i := strings.Index(out, "== "); i >= 0; {
		if i > 0 && out[i-1] != '\n' {
			t.Fatalf("heading at byte %d does not start a line:\n%q", i, out[max(0, i-80):i+20])
		}
		next := strings.Index(out[i+3:], "== ")
		if next < 0 {
			break
		}
		i += 3 + next
	}
}
