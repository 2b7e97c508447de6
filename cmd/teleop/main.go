// Command teleop is a real-time remote-driving demo: the vehicle
// subsystem and the operator station run as separate event loops in one
// process and talk over a REAL TCP connection on localhost — the same
// topology as the paper's setup (CARLA server and client on one host,
// fault injection on the loopback path).
//
// Because the kernel's TCP stack is in the path, faults are injected at
// the application egress (message delay via timers, message drop by
// rate): a live approximation of NETEM for demonstration purposes; the
// deterministic experiments use the in-process emulator instead.
//
// Usage:
//
//	teleop [-duration 30s] [-subject T5] [-delay 50ms] [-drop 0.05] [-addr 127.0.0.1:0]
//	       [-telemetry-addr localhost:9090]
//
// With -connect the station half dials a teleopd hub instead of
// spawning a local vehicle: the hub hosts the world and streams
// (optionally delta-coded) world views down one multiplexed TCP
// connection, and the same driver model steers over it.
//
//	teleop -connect 127.0.0.1:7340 [-scenario follow-vehicle] [-session lab-7]
//	       [-seed 42] [-delta] [-duration 30s] [-subject T5] [-delay 50ms] [-drop 0.05]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/geom"
	"teledrive/internal/netem"
	"teledrive/internal/opsflags"
	"teledrive/internal/scenario"
	"teledrive/internal/sensors"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
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
		delay    = fs.Duration("delay", 0, "one-way injected message delay")
		drop     = fs.Float64("drop", 0, "message drop probability [0,1)")
		addr     = fs.String("addr", "127.0.0.1:0", "TCP listen address")
		ops      = opsflags.Register(fs, "teleop")
		connect  = fs.String("connect", "", "dial a teleopd hub at this address instead of hosting a local vehicle")
		scnName  = fs.String("scenario", "follow-vehicle", "hub scenario to join (-connect mode)")
		sessName = fs.String("session", "", "session label in hub telemetry (-connect mode; empty = scenario name)")
		seed     = fs.Int64("seed", 42, "session network seed (-connect mode)")
		delta    = fs.Bool("delta", false, "request keyframe+diff world-view streaming (-connect mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}

	if *connect != "" {
		return connectHub(hubSessionParams{
			addr: *connect, scenario: *scnName, session: *sessName,
			seed: *seed, delta: *delta, duration: *duration,
			delay: *delay, drop: *drop, profile: prof,
		})
	}

	// Live-demo telemetry: the egress shims count messages per role.
	var vehEgress, staEgress shimInstruments
	if ops.Serving() {
		reg := telemetry.NewRegistry()
		if err := ops.Serve(reg); err != nil {
			return err
		}
		defer ops.Close()
		msgs := reg.CounterVec("teledrive_teleop_messages_total",
			"Messages at the TCP egress shim, by role and outcome.", "role", "event")
		vehEgress = shimInstruments{sent: msgs.With("vehicle", "sent"), dropped: msgs.With("vehicle", "dropped")}
		staEgress = shimInstruments{sent: msgs.With("station", "sent"), dropped: msgs.With("station", "dropped")}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("vehicle subsystem listening on %s (delay=%v drop=%.0f%%)\n", ln.Addr(), *delay, *drop*100)

	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errCh <- serveVehicle(ln, *duration, *delay, *drop, vehEgress)
	}()
	go func() {
		defer wg.Done()
		errCh <- runStation(ln.Addr().String(), prof, *duration, *delay, *drop, staEgress)
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	fmt.Println("teleop session complete")
	return nil
}

// Message tags on the transport framed stream between the two halves.
const (
	msgFrame   = 1
	msgControl = 2
)

// shim injects delay/drop at the application egress. It is the
// real-TCP implementation of session.Link: the kernel's TCP stack is
// the network, so there is no emulated fault surface to inject into
// (Faults returns nil) — impairments are applied at the egress
// instead.
type shim struct {
	mu    sync.Mutex // guards rng
	sw    *transport.StreamWriter
	delay time.Duration
	drop  float64
	rng   *rand.Rand
	ins   shimInstruments
}

// shimInstruments are the demo's nil-safe egress counters; the zero
// value (no -telemetry-addr) counts nothing.
type shimInstruments struct {
	sent    *telemetry.Counter
	dropped *telemetry.Counter
}

var _ session.Link = (*shim)(nil)

// Name implements session.Link.
func (s *shim) Name() string { return "tcp+egress-shim" }

// Faults implements session.Link: a real TCP link exposes no NETEM
// surface, so POI fault injection is unavailable on this link.
func (s *shim) Faults() *netem.Duplex { return nil }

// send drops or delays the message at the egress, then writes it.
//
//lint:allow wallclock live demo: injected delay rides real timers because the peer runs in real time
func (s *shim) send(typ byte, payload []byte) {
	s.mu.Lock()
	roll := s.rng.Float64()
	s.mu.Unlock()
	if roll < s.drop {
		if s.ins.dropped != nil {
			s.ins.dropped.Inc()
		}
		return
	}
	if s.ins.sent != nil {
		s.ins.sent.Inc()
	}
	deliver := func() {
		//lint:allow errswallow a dead connection ends the demo through its read loop and deadline
		_ = s.sw.WriteMsg(0, typ, payload)
	}
	if s.delay > 0 {
		time.AfterFunc(s.delay, deliver)
		return
	}
	deliver()
}

// serveVehicle steps the world in real time and streams camera frames.
//
//lint:allow wallclock real-time demo: wall-clock tickers ARE the physics/frame cadence here, unlike the deterministic bench
func serveVehicle(ln net.Listener, duration, delay time.Duration, drop float64, egress shimInstruments) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()

	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		return err
	}
	collisions := 0
	built.World.OnCollision = func(world.CollisionEvent) { collisions++ }
	cam := sensors.NewCamera(built.World, built.Ego)
	cam.VideoFrameBytes = 0 // keep the live demo light
	out := &shim{sw: transport.NewStreamWriter(conn), delay: delay, drop: drop, rng: rand.New(rand.NewSource(1)), ins: egress}

	// Incoming controls.
	var ctrlMu sync.Mutex
	ctrl := vehicle.Control{}
	go func() {
		sr := transport.NewStreamReader(conn)
		for {
			m, err := sr.ReadMsg()
			if err != nil {
				return
			}
			payload := m.Body
			if m.Tag != msgControl || len(payload) != 25 {
				continue
			}
			c := vehicle.Control{
				Throttle: geom.Clamp(float64(int8(payload[0]))/100, 0, 1),
				Steer:    geom.Clamp(float64(int8(payload[1]))/100, -1, 1),
				Brake:    geom.Clamp(float64(int8(payload[2]))/100, 0, 1),
			}
			ctrlMu.Lock()
			ctrl = c
			ctrlMu.Unlock()
		}
	}()

	physics := time.NewTicker(20 * time.Millisecond)
	defer physics.Stop()
	frames := time.NewTicker(36 * time.Millisecond)
	defer frames.Stop()
	deadline := time.After(duration)
	for {
		select {
		case <-physics.C:
			ctrlMu.Lock()
			built.Ego.Plant.Apply(ctrl)
			ctrlMu.Unlock()
			built.World.Step(0.02)
		case <-frames.C:
			view := cam.Capture()
			out.send(msgFrame, sensors.MarshalWorldView(view))
		case <-deadline:
			fmt.Printf("vehicle: final station %.0f m, %d collisions\n",
				stationOf(built), collisions)
			return nil
		}
	}
}

func stationOf(built *scenario.Built) float64 {
	s, _ := built.Route.Project(built.Ego.Pose().Pos)
	return s
}

// runStation runs the driver model in real time against the TCP feed.
//
//lint:allow wallclock real-time demo: the station's simclock is slaved to the wall clock (clk.AdvanceTo(time.Since(start)))
func runStation(addr string, prof driver.Profile, duration, delay time.Duration, drop float64, egress shimInstruments) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		return err
	}
	out := &shim{sw: transport.NewStreamWriter(conn), delay: delay, drop: drop, rng: rand.New(rand.NewSource(2)), ins: egress}

	// Live perception: latest frame + its arrival wall-time.
	type display struct {
		view    sensors.WorldView
		ok      bool
		arrived time.Time
	}
	var mu sync.Mutex
	disp := display{}
	start := time.Now()
	go func() {
		sr := transport.NewStreamReader(conn)
		for {
			m, err := sr.ReadMsg()
			if err != nil {
				return
			}
			if m.Tag != msgFrame {
				continue
			}
			view, err := sensors.UnmarshalWorldView(m.Body)
			if err != nil {
				continue
			}
			mu.Lock()
			if !disp.ok || view.Frame > disp.view.Frame {
				disp = display{view: view, ok: true, arrived: time.Now()}
			}
			mu.Unlock()
		}
	}()

	clk := simclock.New()
	perc := perceptionFunc(func() (sensors.WorldView, bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if !disp.ok {
			return sensors.WorldView{}, false, -1
		}
		// Frame age at the station ≈ time since this frame arrived; the
		// injected one-way delay is already part of the arrival time.
		return disp.view, true, time.Since(disp.arrived)
	})
	drv, err := driver.New(clk, perc, driver.DefaultConfig(prof, built.Task))
	if err != nil {
		return err
	}
	// The station polls the driver through the same Operator seam the
	// deterministic bench uses — an interactive wheel/pedal reader would
	// slot in here without touching the loop.
	var op session.Operator = drv

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	status := time.NewTicker(5 * time.Second)
	defer status.Stop()
	deadline := time.After(duration)
	for {
		select {
		case <-tick.C:
			now := time.Since(start)
			clk.AdvanceTo(now)
			c := op.Tick(now)
			payload := make([]byte, 25)
			payload[0] = byte(int8(c.Throttle * 100))
			payload[1] = byte(int8(c.Steer * 100))
			payload[2] = byte(int8(c.Brake * 100))
			out.send(msgControl, payload)
		case <-status.C:
			mu.Lock()
			if disp.ok {
				fmt.Printf("station: frame %d, ego speed %.1f m/s, degradation %.2f\n",
					disp.view.Frame, disp.view.Ego.Speed, drv.Degradation())
			}
			mu.Unlock()
		case <-deadline:
			return nil
		}
	}
}

// perceptionFunc adapts a closure to driver.Perception.
type perceptionFunc func() (sensors.WorldView, bool, time.Duration)

func (f perceptionFunc) Frame() (sensors.WorldView, bool) {
	v, ok, _ := f()
	return v, ok
}

func (f perceptionFunc) FrameAge() time.Duration {
	_, ok, age := f()
	if !ok {
		return -1
	}
	return age
}
