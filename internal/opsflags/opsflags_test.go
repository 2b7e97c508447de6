package opsflags

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"teledrive/internal/telemetry"
)

func parse(t *testing.T, args ...string) (*Flags, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	f := Register(fs, "demo").WithProgress("show progress").WithStrict()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	f.stderr = &stderr
	return f, &stderr
}

// TestDefaults pins the names and defaults every binary relies on:
// telemetry off, progress on, strict off.
func TestDefaults(t *testing.T) {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	Register(fs, "demo").WithProgress("show progress").WithStrict()
	for name, want := range map[string]string{"telemetry-addr": "", "progress": "true", "strict": "false"} {
		fl := fs.Lookup(name)
		if fl == nil {
			t.Fatalf("-%s not registered", name)
		}
		if fl.DefValue != want {
			t.Errorf("-%s defaults to %q, want %q", name, fl.DefValue, want)
		}
	}
	f, _ := parse(t)
	if f.Serving() || !f.Progress() {
		t.Errorf("defaults: serving %v progress %v, want false true", f.Serving(), f.Progress())
	}
}

// TestServe starts the ops server only when -telemetry-addr is set, and
// says where on stderr.
func TestServe(t *testing.T) {
	off, stderr := parse(t)
	if err := off.Serve(nil); err != nil {
		t.Fatalf("Serve without -telemetry-addr: %v", err)
	}
	off.Close()
	if stderr.Len() != 0 {
		t.Errorf("Serve without -telemetry-addr printed %q", stderr.String())
	}

	on, stderr := parse(t, "-telemetry-addr", "127.0.0.1:0")
	if err := on.Serve(telemetry.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	addr := on.srv.Addr()
	if want := "telemetry: serving /metrics on http://" + addr + "/metrics\n"; stderr.String() != want {
		t.Errorf("banner %q, want %q", stderr.String(), want)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}

// TestStartProgressOff returns a no-op stop and paints nothing.
func TestStartProgressOff(t *testing.T) {
	f, stderr := parse(t, "-progress=false")
	f.StartProgress("cells", func() uint64 { return 2 }, func() uint64 { return 1 })()
	if stderr.Len() != 0 {
		t.Errorf("-progress=false painted %q", stderr.String())
	}
	on, stderr := parse(t)
	on.StartProgress("cells", func() uint64 { return 2 }, func() uint64 { return 1 })()
	if !strings.Contains(stderr.String(), "cells") {
		t.Errorf("progress line %q does not name its cells", stderr.String())
	}
}

// TestCheckStrict: failed injections warn under the binary's name, and
// fail the run with -strict.
func TestCheckStrict(t *testing.T) {
	f, stderr := parse(t)
	if err := f.CheckStrict(0); err != nil || stderr.Len() != 0 {
		t.Fatalf("clean run: err %v, stderr %q", err, stderr.String())
	}
	if err := f.CheckStrict(2); err != nil {
		t.Fatalf("non-strict mode must not fail: %v", err)
	}
	if want := "demo: warning: 2 fault injection(s) failed; rerun with -strict to make this fatal\n"; stderr.String() != want {
		t.Errorf("warning %q, want %q", stderr.String(), want)
	}
	strict, _ := parse(t, "-strict")
	if err := strict.CheckStrict(2); err == nil || !strings.Contains(err.Error(), "2 fault injection(s) failed (-strict)") {
		t.Errorf("-strict: err %v", err)
	}
}
