package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// heartbeatsPerTimeout is how many heartbeats a worker sends per
// coordinator worker timeout: a busy worker stays connected however
// long its cells run, and only a stall of eleven periods drops it.
const heartbeatsPerTimeout = 12

// Worker connects to a coordinator, rebuilds the campaign plan locally
// from the received Spec, and runs leased cells on its own pool. The
// zero value is usable; Run may be called repeatedly (each call is one
// connection).
type Worker struct {
	// ID names this worker in coordinator telemetry and the journal.
	// Empty means host/pid-free "worker" (the coordinator de-dupes by
	// connection, not by name).
	ID string
	// Capacity is the number of cells simulated concurrently; 0 means
	// runtime.GOMAXPROCS(0).
	Capacity int
	// Registry, when non-nil, instruments the worker: its own
	// lease/result throughput (campaignd_worker_* series) plus the
	// per-run netem/bridge/session instruments, which aggregate across
	// cells exactly like `campaign -telemetry-addr`.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// resultHook, when non-nil, intercepts each outgoing result message
	// and returns the messages actually sent — the chaos battery's
	// withhold/duplicate fault injector. Production code leaves it
	// nil (identity).
	resultHook func(*msg) []*msg
}

func (w *Worker) capacity() int {
	if w.Capacity > 0 {
		return w.Capacity
	}
	return runtime.GOMAXPROCS(0)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// ErrAborted is returned by Worker.Run when the coordinator ended the
// campaign early; the error text after it is the coordinator's reason
// (a failed cell's campaign error, a halt, a cell out of retries).
var ErrAborted = errors.New("campaignd: coordinator aborted the campaign")

// Run dials the coordinator at addr, performs the hello/plan handshake,
// and runs leased cells until the coordinator sends done (returns nil)
// or abort (returns ErrAborted wrapping its reason), the connection
// dies (returns the read error), or ctx is cancelled (returns
// ctx.Err()). Any abrupt exit is safe: the coordinator
// re-queues the unfinished cells of a lost connection to other workers.
func (w *Worker) Run(ctx context.Context, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("campaignd: worker dial: %w", err)
	}
	defer conn.Close()
	// Cancellation unblocks the read loop by closing the connection.
	stopClose := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopClose()

	ins := newWorkerInstruments(w.Registry)

	send := newSender(conn).send

	if err := send(&msg{T: msgHello, Worker: w.ID, Capacity: w.capacity()}); err != nil {
		return fmt.Errorf("campaignd: worker hello: %w", err)
	}
	sr := transport.NewStreamReader(conn)
	pm, err := readMsg(sr)
	if err != nil {
		return fmt.Errorf("campaignd: worker handshake: %w", err)
	}
	if pm.T != msgPlan || pm.Spec == nil {
		return transport.ProtocolErrorf("expected plan, got %q", pm.T)
	}
	heartbeatEvery := time.Duration(pm.TimeoutNS) / heartbeatsPerTimeout
	if heartbeatEvery <= 0 {
		return transport.ProtocolErrorf("plan carries worker timeout %v; want at least %dns to heartbeat in", time.Duration(pm.TimeoutNS), heartbeatsPerTimeout)
	}
	plan, err := pm.Spec.BuildPlan()
	if err != nil {
		return fmt.Errorf("campaignd: worker cannot build plan: %w", err)
	}
	if d := PlanDigest(plan); d != pm.Digest {
		return fmt.Errorf("campaignd: plan digest mismatch (coordinator %.12s…, local %.12s…) — binaries or registries disagree", pm.Digest, d)
	}
	if pm.Cells != len(plan.Cells) {
		return fmt.Errorf("campaignd: plan cell count mismatch (coordinator %d, local %d)", pm.Cells, len(plan.Cells))
	}
	w.logf("campaignd: worker %s connected to %s: %d cells, digest %.12s…", w.ID, addr, len(plan.Cells), pm.Digest)

	// Sized to the whole plan so that a lease never blocks the read loop.
	jobs := make(chan int, len(plan.Cells)+1)
	var wg sync.WaitGroup
	for i := 0; i < w.capacity(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runCells(ctx, plan.Cells, jobs, send, ins)
		}()
	}

	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		tick := newWallTicker(heartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				ins.Heartbeats.Inc()
				if err := send(&msg{T: msgHeartbeat}); err != nil {
					return // read loop surfaces the connection death
				}
			}
		}
	}()
	cleanup := func() {
		close(jobs)
		close(hbStop)
		wg.Wait()
		hbWg.Wait()
	}

	for {
		m, err := readMsg(sr)
		if err != nil {
			cleanup()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("campaignd: worker read: %w", err)
		}
		switch m.T {
		case msgLease:
			if m.Cell < 0 || m.Cell >= len(plan.Cells) {
				cleanup()
				return transport.ProtocolErrorf("leased cell %d out of range", m.Cell)
			}
			ins.Leased.Inc()
			jobs <- m.Cell
		case msgDone:
			w.logf("campaignd: worker %s: campaign complete", w.ID)
			cleanup()
			return nil
		case msgAbort:
			cleanup()
			return fmt.Errorf("%w: %s", ErrAborted, m.Error)
		default:
			cleanup()
			return transport.ProtocolErrorf("unexpected %q from coordinator", m.T)
		}
	}
}

// runCells is one pool runner: it executes leased cells and streams
// their outcomes back. Send errors are deliberately dropped — the read
// loop observes the connection death and unwinds the whole worker.
func (w *Worker) runCells(ctx context.Context, cells []campaign.RunCell, jobs <-chan int, send func(*msg) error, ins *workerInstruments) {
	// One run arena and one artifact cache per pool runner: leased cells
	// execute strictly sequentially here, and each outcome, log
	// included, is encoded before the next lease reuses the scratch.
	scratch := session.NewRunScratch()
	arts := scenario.NewArtifactCache()
	for cell := range jobs {
		if ctx.Err() != nil {
			continue // drain; the coordinator re-queues on disconnect
		}
		ins.gauge(+1)
		spec := cells[cell].Spec
		spec.Metrics = w.Registry
		spec.Scratch = scratch
		spec.Artifacts = arts
		res, err := core.RunOne(spec)
		ins.gauge(-1)
		if err != nil {
			ins.Failed.Inc()
			w.logf("campaignd: worker %s: cell %d failed: %v", w.ID, cell, err)
			_ = send(&msg{T: msgError, Cell: cell, Error: err.Error()})
			continue
		}
		raw, err := json.Marshal(res.Outcome)
		if err != nil {
			ins.Failed.Inc()
			_ = send(&msg{T: msgError, Cell: cell, Error: fmt.Sprintf("encode outcome: %v", err)})
			continue
		}
		ins.Completed.Inc()
		ins.ResultBytes.Add(uint64(len(raw)))
		out := &msg{T: msgResult, Cell: cell, ElapsedNS: res.Elapsed.Nanoseconds(), Outcome: raw}
		for _, m := range w.applyResultHook(out) {
			_ = send(m)
		}
	}
}

// applyResultHook routes a result through the chaos hook (identity when
// unset).
func (w *Worker) applyResultHook(m *msg) []*msg {
	if w.resultHook == nil {
		return []*msg{m}
	}
	return w.resultHook(m)
}
