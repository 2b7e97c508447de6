// Command teleopd is the multi-tenant teleoperation hub daemon: one
// process hosting many concurrent operator↔plant sessions behind a
// single TCP listener. Remote stations (`teleop -connect`) join by
// scenario name; each session gets its own simulated world, clock, and
// emulated network link, while immutable scenario artifacts are shared
// across every tenant.
//
// Usage:
//
//	teleopd [-addr 127.0.0.1:7340] [-turbo] [-workers N]
//	        [-telemetry-addr localhost:9090]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"teledrive/internal/hub"
	"teledrive/internal/opsflags"
	"teledrive/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "teleopd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("teleopd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7340", "TCP listen address for stations")
		turbo   = fs.Bool("turbo", false, "advance sessions as fast as possible instead of pacing to real time (batch/testing)")
		workers = fs.Int("workers", 0, "session pacer goroutines and run-arena pool bound (0 = GOMAXPROCS)")
		ops     = opsflags.Register(fs, "teleopd")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := hub.Config{Workers: *workers, Turbo: *turbo}
	if ops.Serving() {
		reg := telemetry.NewRegistry()
		if err := ops.Serve(reg); err != nil {
			return err
		}
		defer ops.Close()
		cfg.Metrics = reg
	}

	h := hub.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("teleopd: hub listening on %s (turbo=%v, %d cores)\n",
		ln.Addr(), *turbo, runtime.GOMAXPROCS(0))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "teleopd: shutting down")
		h.Close()
		_ = ln.Close()
	}()

	return h.Serve(ln)
}
