package hub_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/hub"
	"teledrive/internal/netem"
	"teledrive/internal/sensors"
	"teledrive/internal/telemetry"
	"teledrive/internal/vehicle"
)

// startHub serves a hub on a loopback listener and tears it down with
// the test.
func startHub(t *testing.T, cfg hub.Config) (*hub.Hub, string) {
	t.Helper()
	h := hub.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Serve(ln) }()
	t.Cleanup(func() {
		h.Close()
		_ = ln.Close()
	})
	return h, ln.Addr().String()
}

// waitDrained polls until the hub has no active sessions.
func waitDrained(t *testing.T, h *hub.Hub, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for h.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hub still has %d active sessions after %v", h.ActiveSessions(), within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubServeLifecycle drives two concurrent sessions over one
// station connection end to end: join by name, stream delta-coded
// frames, send controls, and observe a clean "completed" end for both.
func TestHubServeLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, addr := startHub(t, hub.Config{Turbo: true, Metrics: reg})

	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Unknown scenarios are rejected before any session spins up.
	if _, err := st.Join(hub.JoinRequest{Scenario: "no-such-road"}); err == nil {
		t.Fatal("join of unknown scenario succeeded")
	}

	join := func(scn string, seed int64) *hub.StationSession {
		ss, err := st.Join(hub.JoinRequest{
			Scenario:   scn,
			Seed:       seed,
			Delta:      true,
			DurationNS: (4 * time.Second).Nanoseconds(),
		})
		if err != nil {
			t.Fatalf("join %s: %v", scn, err)
		}
		return ss
	}
	a := join("follow-vehicle", 11)
	b := join("training", 22)
	if a.ID == b.ID {
		t.Fatalf("both sessions got id %d", a.ID)
	}

	// Throttle on every displayed frame: exercises the uplink relay.
	a.SetOnFrame(func(_ sensors.WorldView) {
		_ = a.SendControl(vehicle.Control{Throttle: 0.3})
	})
	for _, ss := range []*hub.StationSession{a, b} {
		end, ok := ss.Wait(30 * time.Second)
		if !ok {
			t.Fatalf("session %d never ended", ss.ID)
		}
		if end.Reason != "completed" {
			t.Fatalf("session %d ended %q, want completed", ss.ID, end.Reason)
		}
		if end.FramesSent == 0 || end.DeltasSent == 0 {
			t.Errorf("session %d sent frames=%d deltas=%d, want both > 0",
				ss.ID, end.FramesSent, end.DeltasSent)
		}
		stats := ss.Stats()
		if stats.FramesReceived == 0 {
			t.Errorf("session %d station displayed no frames", ss.ID)
		}
		if stats.DeltasApplied == 0 {
			t.Errorf("session %d station applied no deltas", ss.ID)
		}
		if _, ok := ss.Frame(); !ok {
			t.Errorf("session %d has no displayed frame", ss.ID)
		}
	}
	waitDrained(t, h, 5*time.Second)
}

// TestHubChaosMidFrameKill cuts the station connection while frames are
// mid-flight; the hub must reap the session without deadlock or leak.
func TestHubChaosMidFrameKill(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, addr := startHub(t, hub.Config{Metrics: reg}) // paced: session outlives the kill

	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Join(hub.JoinRequest{
		Scenario:   "follow-vehicle",
		Seed:       7,
		Delta:      true,
		DurationNS: (2 * time.Minute).Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for live traffic, then yank the socket mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := ss.Frame(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no frame before kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ss.SendControl(vehicle.Control{Throttle: 0.5}); err != nil {
		t.Fatalf("control before kill: %v", err)
	}
	_ = st.Close()

	// The station sees a local "killed" end; the hub reaps the session.
	end, ok := ss.Wait(5 * time.Second)
	if !ok {
		t.Fatal("session never ended locally after connection kill")
	}
	if end.Reason != "killed" {
		t.Errorf("end reason %q, want killed", end.Reason)
	}
	waitDrained(t, h, 10*time.Second)
}

// waitNoPacers polls until no pacer goroutine is left in the process.
// Tests that call it must not run in parallel with other hub tests.
func waitNoPacers(t *testing.T, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "hub.(*pacer).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pacer goroutine still running %v after Close:\n%s", within, stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubChaosMidFrameKillTwice kills a station mid-frame, then dials
// again and kills a second delta session mid-frame once its keyframe
// and the deltas after it have displayed. Both sessions must end
// killed, the hub must drain, and Close must leave no pacer behind.
func TestHubChaosMidFrameKillTwice(t *testing.T) {
	h, addr := startHub(t, hub.Config{Metrics: telemetry.NewRegistry()}) // paced: sessions outlive the kills

	for round := 1; round <= 2; round++ {
		st, err := hub.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := st.Join(hub.JoinRequest{
			Scenario:   "follow-vehicle",
			Seed:       int64(70 + round),
			Delta:      true,
			DurationNS: (2 * time.Minute).Nanoseconds(),
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for ss.Stats().DeltasApplied < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no keyframe and deltas before the kill: %+v", round, ss.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := ss.SendControl(vehicle.Control{Throttle: 0.5}); err != nil {
			t.Fatalf("round %d: control before kill: %v", round, err)
		}
		_ = st.Close()
		end, ok := ss.Wait(5 * time.Second)
		if !ok {
			t.Fatalf("round %d: session never ended locally after connection kill", round)
		}
		if end.Reason != "killed" {
			t.Errorf("round %d: end reason %q, want killed", round, end.Reason)
		}
		waitDrained(t, h, 10*time.Second)
	}
	h.Close()
	waitNoPacers(t, 5*time.Second)
}

// TestHubChaosDeltaResync runs a lossy datagram downlink under delta
// streaming: dropped frames break the diff chain, the station requests
// keyframes, and the stream keeps healing for the session's lifetime.
func TestHubChaosDeltaResync(t *testing.T) {
	h, addr := startHub(t, hub.Config{}) // paced: resync round-trips in real time

	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss, err := st.Join(hub.JoinRequest{
		Scenario:      "follow-vehicle",
		Seed:          99,
		Delta:         true,
		KeyframeEvery: 12,
		Datagram:      true,
		Rule:          &netem.Rule{Loss: 0.15},
		// Small video keeps frames near one MTU each; with the 24 KB
		// default a keyframe is ~18 fragments and almost never survives
		// the lossy link intact.
		VideoBytes:      900,
		VideoDeltaBytes: 200,
		DurationNS:      (6 * time.Second).Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	end, ok := ss.Wait(60 * time.Second)
	if !ok {
		t.Fatal("session never ended")
	}
	if end.Reason != "completed" {
		t.Fatalf("end reason %q, want completed", end.Reason)
	}
	stats := ss.Stats()
	if stats.DeltaResyncs == 0 {
		t.Error("15% datagram loss under delta streaming produced no resyncs")
	}
	if stats.FramesReceived < 20 {
		t.Errorf("station displayed only %d frames over 6s — stream did not heal", stats.FramesReceived)
	}
	if stats.DeltasApplied == 0 {
		t.Error("no deltas applied despite delta streaming")
	}
	waitDrained(t, h, 5*time.Second)
}

// TestHubChurnConcurrentJoinLeave hammers one hub with stations that
// join, drive briefly, and leave (or just vanish) concurrently. All
// session ids stay unique and everything drains.
func TestHubChurnConcurrentJoinLeave(t *testing.T) {
	h, addr := startHub(t, hub.Config{Turbo: true, Metrics: telemetry.NewRegistry()})

	const stations = 3
	const perStation = 4
	var mu sync.Mutex
	ids := make(map[uint64]string)

	var wg sync.WaitGroup
	for s := 0; s < stations; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st, err := hub.Dial(addr)
			if err != nil {
				t.Errorf("station %d: %v", s, err)
				return
			}
			defer st.Close()
			var sw sync.WaitGroup
			for j := 0; j < perStation; j++ {
				sw.Add(1)
				go func(j int) {
					defer sw.Done()
					ss, err := st.Join(hub.JoinRequest{
						Scenario:   "training",
						Seed:       int64(s*100 + j),
						Delta:      j%2 == 0,
						DurationNS: (3 * time.Second).Nanoseconds(),
					})
					if err != nil {
						t.Errorf("station %d join %d: %v", s, j, err)
						return
					}
					mu.Lock()
					if prev, dup := ids[ss.ID]; dup {
						t.Errorf("session id %d assigned twice (%s and station %d)", ss.ID, prev, s)
					}
					ids[ss.ID] = fmt.Sprintf("station %d join %d", s, j)
					mu.Unlock()
					if j%2 == 1 {
						// Leave mid-run; the hub answers with a terminal end.
						_ = ss.Leave()
					}
					if _, ok := ss.Wait(30 * time.Second); !ok {
						t.Errorf("station %d session %d never ended", s, ss.ID)
					}
				}(j)
			}
			sw.Wait()
		}(s)
	}
	wg.Wait()
	if len(ids) != stations*perStation {
		t.Errorf("tracked %d unique sessions, want %d", len(ids), stations*perStation)
	}
	waitDrained(t, h, 10*time.Second)
}

// TestHubHostileBytes throws garbage at a served socket: the hub must
// answer with a wire error (counted), close the connection, and keep
// serving well-formed stations.
func TestHubHostileBytes(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, addr := startHub(t, hub.Config{Turbo: true, Metrics: reg})

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("\xff\xff\xff\xff totally not a frame")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _ := c.Read(buf) // hub sends kindError then closes
	_ = c.Close()
	if n == 0 {
		t.Error("hub closed without a wire error reply")
	}

	// The hub survives: a well-formed station still gets service.
	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss, err := st.Join(hub.JoinRequest{
		Scenario:   "training",
		Seed:       1,
		DurationNS: (1 * time.Second).Nanoseconds(),
	})
	if err != nil {
		t.Fatalf("join after hostile peer: %v", err)
	}
	if end, ok := ss.Wait(30 * time.Second); !ok || end.Reason != "completed" {
		t.Fatalf("session after hostile peer: ok=%v end=%+v", ok, end)
	}
	waitDrained(t, h, 5*time.Second)
}

// TestHubServeCloseBeforeServe runs the bench's set-up and tear-down
// pattern — Serve on a goroutine, Dial, Close, close the listener, wait
// for Serve — many times. Close can land before the goroutine reaches
// Serve, and Serve must then report the clean stop (nil) as it does for
// a Close that lands during Accept.
func TestHubServeCloseBeforeServe(t *testing.T) {
	for i := range 200 {
		h := hub.New(hub.Config{Workers: 2})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- h.Serve(ln) }()
		st, err := hub.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = st.Close()
		h.Close()
		_ = ln.Close()
		if err := <-served; err != nil {
			t.Fatalf("run %d: Serve returned %v, want nil", i, err)
		}
	}
}

// TestHubWireBurstFlush sends controls from the OnFrame callback, where
// the station only queues them, and nothing else afterwards. The
// station writes nothing else, so the controls reach the plant only if
// the read goroutine flushes its queue before it waits for the next
// frame. The session's end report must count every one.
func TestHubWireBurstFlush(t *testing.T) {
	h, addr := startHub(t, hub.Config{}) // paced: the station idles between frames

	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss, err := st.Join(hub.JoinRequest{
		Scenario:   "follow-vehicle",
		Seed:       3,
		Delta:      true,
		DurationNS: (1500 * time.Millisecond).Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const controls = 3
	sent := 0 // only the read goroutine touches it
	ss.SetOnFrame(func(_ sensors.WorldView) {
		if sent == controls {
			return
		}
		sent++
		if err := ss.SendControl(vehicle.Control{Throttle: 0.2 * float64(sent)}); err != nil {
			t.Errorf("control %d: %v", sent, err)
		}
	})
	end, ok := ss.Wait(30 * time.Second)
	if !ok {
		t.Fatal("session never ended")
	}
	if end.Reason != "completed" {
		t.Fatalf("end reason %q, want completed", end.Reason)
	}
	if got := ss.Stats().ControlsSent; got != controls {
		t.Fatalf("station sent %d controls, want %d", got, controls)
	}
	if end.Controls != controls {
		t.Errorf("plant applied %d of %d controls sent from OnFrame", end.Controls, controls)
	}
	waitDrained(t, h, 5*time.Second)
}

// TestHubServeCloseIsNotProtocolError closes a hub under a connected
// station. The hub's read loop then fails with a closed socket, an I/O
// event: it must not count a protocol error or answer with a wire
// error.
func TestHubServeCloseIsNotProtocolError(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, addr := startHub(t, hub.Config{Metrics: reg})
	st, err := hub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss, err := st.Join(hub.JoinRequest{Scenario: "training", Seed: 5, DurationNS: time.Minute.Nanoseconds()})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, ok := ss.Wait(5 * time.Second); !ok {
		t.Fatal("session never ended after hub Close")
	}
	waitDrained(t, h, 5*time.Second)
	if n := reg.Counter("teledrive_hub_protocol_errors_total", "").Value(); n != 0 {
		t.Errorf("Close counted %d protocol errors, want 0", n)
	}
	if err := st.Err(); err == nil || strings.Contains(err.Error(), "protocol") {
		t.Errorf("station connection error %v, want a plain close", err)
	}
}

// countingListener counts Write calls on the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestHubServeFlushPerTick pins the downlink batching: the sessions a
// pacer steps on one tick relay their frames into the connection's
// queue, and the pacer flushes it once. K paced sessions on one
// station, run for T ticks, must cost at most about Workers flushes a
// tick plus the join replies, far fewer writes than the frames they
// deliver (one write per frame before the pacers).
func TestHubServeFlushPerTick(t *testing.T) {
	const (
		workers  = 2
		sessions = 32
		ticks    = 50
	)
	h := hub.New(hub.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go func() { _ = h.Serve(countingListener{ln, &writes}) }()
	t.Cleanup(func() {
		h.Close()
		_ = ln.Close()
	})
	st, err := hub.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	joinStart := time.Now()
	all := make([]*hub.StationSession, sessions)
	for i := range all {
		if all[i], err = st.Join(hub.JoinRequest{
			Scenario:   "follow-vehicle",
			Seed:       int64(i),
			Delta:      true,
			DurationNS: (ticks * bridge.PhysicsTick).Nanoseconds(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Sessions that joined on different grid points come due on
	// different ticks, so the joins' spread widens the window.
	spread := int64(time.Since(joinStart)/bridge.PhysicsTick) + 1
	var frames uint64
	for _, ss := range all {
		end, ok := ss.Wait(30 * time.Second)
		if !ok || end.Reason != "completed" {
			t.Fatalf("session %d: ok=%v end=%+v", ss.ID, ok, end)
		}
		frames += ss.Stats().FramesReceived
	}
	waitDrained(t, h, 5*time.Second)

	// One flush per pacer and tick, plus one write per join reply. A
	// flush can take two writes: a pacer whose write is in flight also
	// writes what the other pacer queued meanwhile (group commit).
	n := writes.Load()
	bound := 2*workers*(ticks+spread+2) + sessions
	t.Logf("%d downlink writes for %d frames over %d ticks (join spread %d ticks, bound %d)", n, frames, ticks, spread, bound)
	if n > bound {
		t.Errorf("%d downlink writes, want at most %d", n, bound)
	}
	if uint64(n)*4 > frames {
		t.Errorf("%d downlink writes for %d frames delivered, want under a quarter", n, frames)
	}
}

// stallConn is a station connection that stops reading once stall is
// closed, and stays stalled until it is closed itself.
type stallConn struct {
	net.Conn
	stall, closed chan struct{}
	once          sync.Once
}

func (c *stallConn) Read(p []byte) (int, error) {
	select {
	case <-c.stall:
		<-c.closed
		return 0, net.ErrClosed
	default:
		return c.Conn.Read(p)
	}
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// smallBufListener shrinks the send buffer of the first connection it
// accepts, so a peer that stops reading blocks the hub's writes at
// once.
type smallBufListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.accepted.Add(1) == 1 {
		err = c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestHubServeStalledStation joins sessions from a station that then
// stops reading, with one session on every pacer, and a paced session
// from a second station after it. The pacers' writes to the stalled
// station time out, so the second station's session completes on time
// and the stalled station's sessions are killed.
func TestHubServeStalledStation(t *testing.T) {
	const workers = 2
	h := hub.New(hub.Config{Workers: workers})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &smallBufListener{Listener: inner}
	go func() { _ = h.Serve(ln) }()
	t.Cleanup(func() {
		h.Close()
		_ = ln.Close()
	})

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	sc := &stallConn{Conn: raw, stall: make(chan struct{}), closed: make(chan struct{})}
	stalled := hub.NewStation(sc)
	defer stalled.Close()
	for i := range 2 * workers { // session ids are consecutive: every pacer gets some
		if _, err := stalled.Join(hub.JoinRequest{
			Scenario:   "follow-vehicle",
			Seed:       int64(i),
			DurationNS: time.Minute.Nanoseconds(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(sc.stall)

	st, err := hub.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const duration = 2 * time.Second
	start := time.Now()
	ss, err := st.Join(hub.JoinRequest{
		Scenario:   "follow-vehicle",
		Seed:       9,
		Delta:      true,
		DurationNS: duration.Nanoseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	end, ok := ss.Wait(duration + 10*time.Second)
	elapsed := time.Since(start)
	if !ok {
		t.Fatalf("paced session never ended: the stalled station holds its pacer")
	}
	if end.Reason != "completed" {
		t.Fatalf("end reason %q, want completed", end.Reason)
	}
	t.Logf("a %v session completed after %v beside a stalled station", duration, elapsed)
	if late := elapsed - duration; late > time.Second {
		t.Errorf("session completed %v late", late)
	}
	// The stalled station's minute-long sessions end only by a kill.
	waitDrained(t, h, 5*time.Second)
}
