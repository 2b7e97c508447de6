// Package opsflags sets up the operational flags the teledrive binaries
// share, and acts on them: -telemetry-addr serves /metrics, /healthz
// and /debug/pprof; -progress shows a live progress line; -strict fails
// a run whose fault injections failed. Everything they print goes to
// stderr, so stdout stays byte-identical with any of them on or off.
package opsflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"teledrive/internal/telemetry"
)

// Flags holds one binary's ops flags. Register adds -telemetry-addr;
// WithProgress and WithStrict add the other two where a binary has
// them.
type Flags struct {
	fs       *flag.FlagSet
	name     string
	stderr   io.Writer
	addr     *string
	progress *bool
	strict   *bool
	srv      *telemetry.OpsServer
}

// Register adds -telemetry-addr to fs. name prefixes the warnings the
// flags print.
func Register(fs *flag.FlagSet, name string) *Flags {
	return &Flags{
		fs:     fs,
		name:   name,
		stderr: os.Stderr,
		addr:   fs.String("telemetry-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. localhost:9090); empty = off"),
	}
}

// WithProgress adds -progress, on by default; usage says what the
// progress line shows.
func (f *Flags) WithProgress(usage string) *Flags {
	f.progress = f.fs.Bool("progress", true, usage)
	return f
}

// WithStrict adds -strict, off by default.
func (f *Flags) WithStrict() *Flags {
	f.strict = f.fs.Bool("strict", false, "exit nonzero when any fault injection failed (invalid test executions under the paper's protocol)")
	return f
}

// WithStderr sends what the flags print — the telemetry banner, the
// progress line, warnings — to w instead of os.Stderr.
func (f *Flags) WithStderr(w io.Writer) *Flags {
	f.stderr = w
	return f
}

// Serving reports whether -telemetry-addr is set.
func (f *Flags) Serving() bool { return *f.addr != "" }

// Serve starts the ops server on reg when -telemetry-addr is set, and
// says where on stderr. Close stops it.
func (f *Flags) Serve(reg *telemetry.Registry) error {
	srv, err := telemetry.Serve(*f.addr, reg)
	if err != nil {
		return err
	}
	if srv != nil {
		f.srv = srv
		fmt.Fprintf(f.stderr, "telemetry: serving /metrics on http://%s/metrics\n", srv.Addr())
	}
	return nil
}

// Close stops the ops server, if Serve started one.
func (f *Flags) Close() {
	_ = f.srv.Close() // the ops plane never fails a run that already finished
}

// Progress reports whether -progress is on.
func (f *Flags) Progress() bool { return f.progress != nil && *f.progress }

// StartProgress starts the live progress line on stderr when -progress
// is on (see telemetry.StartProgress) and returns the function that
// stops it.
func (f *Flags) StartProgress(noun string, total, done func() uint64) (stop func()) {
	if !f.Progress() {
		return func() {}
	}
	return telemetry.StartProgress(f.stderr, noun, total, done)
}

// CheckStrict enforces -strict on a run's count of failed fault
// injections. Such runs never experienced their assigned network
// conditions: invalid test executions under the paper's protocol. They
// always warn; with -strict they fail the run.
func (f *Flags) CheckStrict(failed int) error {
	if failed == 0 {
		return nil
	}
	if f.strict != nil && *f.strict {
		return fmt.Errorf("%d fault injection(s) failed (-strict)", failed)
	}
	fmt.Fprintf(f.stderr, "%s: warning: %d fault injection(s) failed; rerun with -strict to make this fatal\n", f.name, failed)
	return nil
}
