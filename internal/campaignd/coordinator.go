package campaignd

import (
	"errors"
	"fmt"
	"net"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/rds"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// Defaults for the coordinator's fault-tolerance knobs.
const (
	// DefaultMaxRetries bounds how often one cell may be re-queued
	// after losing its worker before the campaign aborts.
	DefaultMaxRetries = 5
	// DefaultWorkerTimeout disconnects a worker whose connection goes
	// silent (no results, no heartbeats) and re-queues its leases.
	DefaultWorkerTimeout = 60 * time.Second
)

// ErrHalted is returned by Coordinator.Run when it was stopped before
// the campaign completed (context cancellation — the "kill" of the
// chaos battery). The journal holds every completed cell; a new
// coordinator with the same Spec and JournalPath resumes without
// re-running finished work.
var ErrHalted = errors.New("campaignd: coordinator halted mid-campaign")

// Coordinator shards a campaign plan over connected workers: it leases
// cell indices, collects streamed outcomes, journals them, and folds
// them through the exact in-process aggregation. The zero value plus a
// Spec is usable; Run may be called once.
type Coordinator struct {
	// Spec describes the campaign. Workers rebuild the same plan
	// locally; only indices and results cross the wire.
	Spec Spec
	// JournalPath is the JSONL checkpoint file; empty disables crash
	// recovery (results kept in memory only).
	JournalPath string
	// MaxRetries and WorkerTimeout default to the constants above when
	// zero. Workers heartbeat at a fixed fraction of WorkerTimeout,
	// which the plan message carries to them.
	MaxRetries    int
	WorkerTimeout time.Duration
	// Registry, when non-nil, exposes coordinator telemetry
	// (campaignd_* series; see instruments.go).
	Registry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// haltAfterJournaled, when positive, makes Run return ErrHalted
	// after that many cells have been journaled in this run — the chaos
	// battery's deterministic coordinator kill. Production code leaves
	// it zero.
	haltAfterJournaled int
}

func (c *Coordinator) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return DefaultMaxRetries
}

func (c *Coordinator) workerTimeout() time.Duration {
	if c.WorkerTimeout > 0 {
		return c.WorkerTimeout
	}
	return DefaultWorkerTimeout
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// workerConn is the coordinator's view of one connected worker. All
// fields are owned by the event loop after registration.
type workerConn struct {
	key      string // unique per connection (tracker identity)
	name     string // worker-reported id (telemetry label)
	capacity int
	conn     net.Conn
	out      *sender
	leases   map[int]bool

	cellsCtr *telemetry.Counter
	hbCtr    *telemetry.Counter
	leaseG   *telemetry.Gauge
}

// coordEvent is one unit of event-loop input from a connection reader.
type coordEvent struct {
	wc  *workerConn
	m   *msg  // nil on connection loss
	err error // set when m is nil
}

// Run serves the campaign on ln until every cell has a journaled result
// (returns the assembled campaign.Result), a worker reports a failed
// cell (returns the canonical cell error campaign.Run would return), a
// cell loses more than MaxRetries workers (returns the abort error), or
// stop is signalled (returns ErrHalted; resume by running again with
// the same JournalPath). On every error it first tells each connected
// worker why (an abort message carrying the error text), then closes
// the connections. Run closes ln before returning.
func (c *Coordinator) Run(stop <-chan struct{}, ln net.Listener) (_ *campaign.Result, err error) {
	started := nowWall()
	plan, err := c.Spec.BuildPlan()
	if err != nil {
		return nil, err
	}
	digest := PlanDigest(plan)
	keep := keepResult(plan)
	j, err := openJournal(c.JournalPath, digest, len(plan.Cells), keep)
	if err != nil {
		return nil, err
	}
	defer j.close()

	ins := newCoordInstruments(c.Registry)
	ins.CellsPlanned.Add(uint64(len(plan.Cells)))
	tr := newTracker(len(plan.Cells), c.maxRetries())
	for cell := range j.results {
		tr.restore(cell)
		ins.CellsRestored.Inc()
	}
	c.logf("campaignd: plan %d cells (%d restored from journal), digest %.12s…", len(plan.Cells), len(j.results), digest)
	if tr.done() {
		ln.Close()
		return assembleResult(plan, j, started)
	}

	events := make(chan coordEvent, 64)
	loopDone := make(chan struct{})
	defer close(loopDone)
	defer ln.Close()

	// Accept loop: handshake runs per-connection so a slow or hostile
	// client cannot stall the event loop; registration and everything
	// after it happens on the event loop.
	planMsg := &msg{T: msgPlan, Spec: &c.Spec, Digest: digest, Cells: len(plan.Cells), TimeoutNS: c.workerTimeout().Nanoseconds()}
	var connSeq int
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			connSeq++
			go c.handshake(conn, connSeq, planMsg, ins, events, loopDone)
		}
	}()

	workers := make(map[string]*workerConn) // by key
	defer func() {
		for _, wc := range workers {
			if err != nil {
				wc.abort(err)
			}
			wc.conn.Close()
		}
	}()

	disconnect := func(wc *workerConn) error {
		if _, ok := workers[wc.key]; !ok {
			return nil
		}
		delete(workers, wc.key)
		wc.conn.Close()
		ins.WorkersConnected.Dec()
		wc.leaseG.Set(0)
		requeued, err := tr.release(wc.key)
		if len(requeued) > 0 {
			c.logf("campaignd: worker %s lost, re-queued %d cells", wc.name, len(requeued))
			ins.CellsRequeued.Add(uint64(len(requeued)))
		}
		return err
	}

	fill := func(wc *workerConn) error {
		for len(wc.leases) < wc.capacity {
			cell, ok := tr.next(wc.key)
			if !ok {
				return nil
			}
			if err := wc.out.send(&msg{T: msgLease, Cell: cell}); err != nil {
				c.logf("campaignd: lease write to %s failed: %v", wc.name, err)
				return disconnect(wc)
			}
			wc.leases[cell] = true
			wc.leaseG.Set(int64(len(wc.leases)))
		}
		return nil
	}
	fillAll := func() error {
		for _, wc := range workers {
			if !tr.pending() {
				return nil
			}
			if err := fill(wc); err != nil {
				return err
			}
		}
		return nil
	}

	journaledThisRun := 0
	for {
		select {
		case <-stop:
			c.logf("campaignd: halt requested with %d/%d cells done", tr.doneCount, len(plan.Cells))
			return nil, ErrHalted

		case ev := <-events:
			if ev.m == nil { // connection lost
				if errors.Is(ev.err, transport.ErrProtocol) {
					ins.protocolError()
					c.logf("campaignd: protocol error from %s: %v", ev.wc.name, ev.err)
				}
				if err := disconnect(ev.wc); err != nil {
					return nil, err
				}
				if err := fillAll(); err != nil {
					return nil, err
				}
				continue
			}
			if _, ok := workers[ev.wc.key]; !ok {
				if ev.m.T != msgHello {
					continue // late event from a disconnected worker
				}
				// Registration (handshake already replied with the plan).
				workers[ev.wc.key] = ev.wc
				ins.WorkersConnected.Inc()
				ev.wc.cellsCtr = ins.workerCells.With(ev.wc.name)
				ev.wc.hbCtr = ins.workerHeartbeats.With(ev.wc.name)
				ev.wc.leaseG = ins.workerLeases.With(ev.wc.name)
				c.logf("campaignd: worker %s connected (capacity %d)", ev.wc.name, ev.wc.capacity)
				if err := fill(ev.wc); err != nil {
					return nil, err
				}
				continue
			}

			switch ev.m.T {
			case msgHeartbeat:
				ev.wc.hbCtr.Inc()

			case msgResult:
				cell := ev.m.Cell
				if cell < 0 || cell >= len(plan.Cells) {
					ins.protocolError()
					c.logf("campaignd: worker %s sent result for cell %d (out of range)", ev.wc.name, cell)
					if err := disconnect(ev.wc); err != nil {
						return nil, err
					}
					continue
				}
				if ev.wc.leases[cell] {
					delete(ev.wc.leases, cell)
					ev.wc.leaseG.Set(int64(len(ev.wc.leases)))
				}
				out, err := decodeOutcome(ev.m.Outcome)
				if err != nil {
					// Framed correctly but not a valid outcome: hostile or
					// broken worker. Disconnecting it re-queues the cell.
					ins.protocolError()
					c.logf("campaignd: worker %s sent undecodable outcome for cell %d: %v", ev.wc.name, cell, err)
					if err := disconnect(ev.wc); err != nil {
						return nil, err
					}
					continue
				}
				if !tr.complete(cell) {
					// First write won earlier — a duplicated frame. Results
					// are seed-determined and identical, so dropping is
					// lossless; counting keeps the duplicate observable.
					ins.CellsDupes.Inc()
					if err := fill(ev.wc); err != nil {
						return nil, err
					}
					continue
				}
				if err := j.append(journalEntry{
					Cell: cell, Worker: ev.wc.name,
					ElapsedNS: ev.m.ElapsedNS, Outcome: ev.m.Outcome,
				}, keep(cell, out, time.Duration(ev.m.ElapsedNS))); err != nil {
					return nil, err
				}
				journaledThisRun++
				ins.CellsDone.Inc()
				ev.wc.cellsCtr.Inc()
				if c.haltAfterJournaled > 0 && journaledThisRun >= c.haltAfterJournaled {
					c.logf("campaignd: halting after %d journaled cells (test hook)", journaledThisRun)
					return nil, ErrHalted
				}
				if tr.done() {
					for _, wc := range workers {
						//lint:allow errswallow best-effort farewell: the campaign result is already assembled and the conn closes next line either way
						_ = wc.out.send(&msg{T: msgDone})
						wc.conn.Close()
					}
					return assembleResult(plan, j, started)
				}
				if err := fill(ev.wc); err != nil {
					return nil, err
				}

			case msgError:
				cell := ev.m.Cell
				if cell < 0 || cell >= len(plan.Cells) {
					ins.protocolError()
					if err := disconnect(ev.wc); err != nil {
						return nil, err
					}
					continue
				}
				// A cell is a pure function of its seed and the digest
				// proved both sides run the same plan, so it would fail on
				// every worker: fail the campaign as the in-process runner
				// does.
				ins.CellsErrored.Inc()
				c.logf("campaignd: worker %s failed cell %d: %s", ev.wc.name, cell, ev.m.Error)
				return nil, plan.CellError(plan.Cells[cell], errors.New(ev.m.Error))

			default:
				ins.protocolError()
				c.logf("campaignd: worker %s sent unexpected %q", ev.wc.name, ev.m.T)
				if err := disconnect(ev.wc); err != nil {
					return nil, err
				}
			}
		}
	}
}

// handshake performs the per-connection hello/plan exchange off the
// event loop, then hands the connection to it and keeps reading
// messages into the event channel until the connection dies.
func (c *Coordinator) handshake(conn net.Conn, seq int, planMsg *msg, ins *coordInstruments, events chan<- coordEvent, loopDone <-chan struct{}) {
	sr := transport.NewStreamReader(conn)
	_ = conn.SetReadDeadline(nowWall().Add(c.workerTimeout()))
	hello, err := readMsg(sr)
	if err != nil || hello.T != msgHello {
		if err == nil {
			err = transport.ProtocolErrorf("expected hello, got %q", hello.T)
		}
		if errors.Is(err, transport.ErrProtocol) {
			ins.protocolError()
			c.logf("campaignd: bad handshake from %s: %v", conn.RemoteAddr(), err)
		}
		conn.Close()
		return
	}
	wc := &workerConn{
		key:      fmt.Sprintf("%s/%d", hello.Worker, seq),
		name:     hello.Worker,
		capacity: hello.Capacity,
		conn:     conn,
		out:      newSender(conn),
		leases:   make(map[int]bool),
	}
	if wc.name == "" {
		wc.name = fmt.Sprintf("worker-%d", seq)
	}
	if wc.capacity <= 0 {
		wc.capacity = 1
	}
	if err := wc.out.send(planMsg); err != nil {
		conn.Close()
		return
	}
	// Register; the event loop takes ownership of writes from here on.
	select {
	case events <- coordEvent{wc: wc, m: hello}:
	case <-loopDone:
		conn.Close()
		return
	}
	for {
		_ = conn.SetReadDeadline(nowWall().Add(c.workerTimeout()))
		m, err := readMsg(sr)
		if err != nil {
			select {
			case events <- coordEvent{wc: wc, err: err}:
			case <-loopDone:
			}
			conn.Close()
			return
		}
		select {
		case events <- coordEvent{wc: wc, m: m}:
		case <-loopDone:
			conn.Close()
			return
		}
	}
}

// abort tells a worker why the campaign ended before its connection
// closes, so it exits naming the reason instead of a bare EOF. Best
// effort under a short write deadline: a stalled worker cannot hold up
// the coordinator's return.
func (wc *workerConn) abort(reason error) {
	_ = wc.conn.SetWriteDeadline(nowWall().Add(abortWriteTimeout))
	//lint:allow errswallow best-effort farewell: the connection closes next either way
	_ = wc.out.send(&msg{T: msgAbort, Error: reason.Error()})
}

// abortWriteTimeout bounds the abort message's write.
const abortWriteTimeout = time.Second

// keepResult analyses a cell's decoded outcome as it arrives (or is
// replayed from the journal) and keeps what campaign.ExecuteCells keeps
// of an in-process cell: the outcome scalars and fingerprint, the
// analysis, and the log's sparse events — not its per-tick series.
// Analyses are recomputed locally from the (bit-exact) run logs, so the
// distributed Result is indistinguishable from `campaign -workers N`
// output.
func keepResult(plan *campaign.Plan) keepFunc {
	return func(cell int, out *rds.Outcome, elapsed time.Duration) *core.Result {
		r := &core.Result{
			Outcome:  out,
			Analysis: core.AnalyzeRun(out.Log, plan.Cells[cell].Spec.Scenario),
			Elapsed:  elapsed,
		}
		out.Log = out.Log.Events()
		return r
	}
}

// assembleResult folds the journaled results through the in-process
// aggregation.
func assembleResult(plan *campaign.Plan, j *cellJournal, started time.Time) (*campaign.Result, error) {
	results := make([]*core.Result, len(plan.Cells))
	for ci := range plan.Cells {
		r, ok := j.results[ci]
		if !ok {
			return nil, fmt.Errorf("campaignd: internal: cell %d has no journaled outcome", ci)
		}
		results[ci] = r
	}
	return plan.Assemble(results, started)
}
