// Command teleop is a real-time remote-driving station: the driver
// model perceives delta-coded or full world views from a session hub
// and steers over one TCP connection.
//
// Without -connect, teleop hosts its own hub in-process on -addr and
// drives one session on it over loopback TCP, the topology of the
// paper's setup (CARLA server and client on one host). With -connect
// it joins a teleopd hub instead. Either way -delay and -drop become
// the session's bidirectional netem rule on the reliable bridge
// transport, so packet loss reaches the station as retransmission
// stalls, not as skipped frames.
//
// Usage:
//
//	teleop [-duration 30s] [-subject T5] [-scenario follow-vehicle] [-session lab-7]
//	       [-seed 42] [-delta] [-delay 50ms] [-drop 0.05]
//	       [-addr 127.0.0.1:0 | -connect 127.0.0.1:7340] [-telemetry-addr localhost:9090]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/opsflags"
	"teledrive/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "teleop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("teleop", flag.ContinueOnError)
	var (
		duration = fs.Duration("duration", 30*time.Second, "how long to drive")
		subject  = fs.String("subject", "T5", "driver profile at the station")
		delay    = fs.Duration("delay", 0, "one-way netem delay on the session link")
		drop     = fs.Float64("drop", 0, "netem packet loss probability [0,1) on the session link")
		addr     = fs.String("addr", "127.0.0.1:0", "TCP listen address of the in-process hub (without -connect)")
		ops      = opsflags.Register(fs, "teleop")
		connect  = fs.String("connect", "", "dial a teleopd hub at this address instead of hosting one in-process")
		scnName  = fs.String("scenario", "follow-vehicle", "hub scenario to join")
		sessName = fs.String("session", "", "session label in hub telemetry (empty = scenario name)")
		seed     = fs.Int64("seed", 42, "session network seed")
		delta    = fs.Bool("delta", false, "request keyframe+diff world-view streaming")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}

	reg := telemetry.NewRegistry()
	if err := ops.Serve(reg); err != nil {
		return err
	}
	defer ops.Close()

	p := hubSessionParams{
		addr: *connect, scenario: *scnName, session: *sessName,
		seed: *seed, delta: *delta, duration: *duration,
		delay: *delay, drop: *drop, profile: prof,
	}
	if *connect != "" {
		return connectHub(p)
	}
	return hostHub(*addr, reg, p)
}

// hostHub serves an in-process hub on addr, drives one session on it
// through connectHub, then shuts the hub down.
func hostHub(addr string, reg *telemetry.Registry, p hubSessionParams) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h := hub.New(hub.Config{Metrics: reg})
	served := make(chan error, 1)
	go func() { served <- h.Serve(ln) }()
	fmt.Printf("hub listening on %s\n", ln.Addr())

	p.addr = ln.Addr().String()
	err = connectHub(p)
	h.Close()
	_ = ln.Close() // Serve returns nil once the hub is closed
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}
