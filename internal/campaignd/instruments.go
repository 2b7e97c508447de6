package campaignd

import (
	"teledrive/internal/telemetry"
)

// coordInstruments is the coordinator's telemetry: campaign progress by
// lifecycle event, per-worker throughput and liveness, and the
// protocol-error counter the fuzz battery pins. All handles bind once
// per Run; the event loop touches only pre-bound atomics. An
// uninstrumented coordinator gets instruments bound to a throwaway
// registry — counters still count (atomics are nearly free), nothing
// exports them, and no call site needs a nil check.
type coordInstruments struct {
	cells telemetry.CounterVec // campaignd_cells_total{event}

	CellsPlanned  *telemetry.Counter // cells in the plan
	CellsRestored *telemetry.Counter // completed in a previous run, replayed from the journal
	CellsDone     *telemetry.Counter // results accepted this run
	CellsRequeued *telemetry.Counter // leases revoked by a lost worker connection
	CellsDupes    *telemetry.Counter // results dropped by first-write-wins
	CellsErrored  *telemetry.Counter // worker-reported cell failures

	// ProtocolErrors counts malformed wire input; each one also closes
	// the offending connection.
	ProtocolErrors *telemetry.Counter
	// WorkersConnected tracks live worker connections.
	WorkersConnected *telemetry.Gauge

	workerCells      telemetry.CounterVec // campaignd_worker_cells_total{worker}
	workerHeartbeats telemetry.CounterVec // campaignd_worker_heartbeats_total{worker}
	workerLeases     telemetry.GaugeVec   // campaignd_worker_leases{worker}
}

func newCoordInstruments(reg *telemetry.Registry) *coordInstruments {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cells := reg.CounterVec("campaignd_cells_total",
		"Coordinator cells by lifecycle event (planned/restored/done/requeued/duplicate/errored).", "event")
	return &coordInstruments{
		cells:         cells,
		CellsPlanned:  cells.With("planned"),
		CellsRestored: cells.With("restored"),
		CellsDone:     cells.With("done"),
		CellsRequeued: cells.With("requeued"),
		CellsDupes:    cells.With("duplicate"),
		CellsErrored:  cells.With("errored"),
		ProtocolErrors: reg.Counter("campaignd_protocol_errors_total",
			"Malformed wire input (bad framing, corrupt frames, invalid JSON); each closes the connection."),
		WorkersConnected: reg.Gauge("campaignd_workers_connected",
			"Live worker connections."),
		workerCells: reg.CounterVec("campaignd_worker_cells_total",
			"Results accepted per worker.", "worker"),
		workerHeartbeats: reg.CounterVec("campaignd_worker_heartbeats_total",
			"Heartbeats received per worker.", "worker"),
		workerLeases: reg.GaugeVec("campaignd_worker_leases",
			"Cells currently leased per worker.", "worker"),
	}
}

func (ins *coordInstruments) protocolError() { ins.ProtocolErrors.Inc() }

// workerInstruments is the worker-side telemetry: its own lease/result
// throughput, exported on the worker's -telemetry-addr alongside the
// per-run netem/bridge/session instruments that aggregate into the same
// registry.
type workerInstruments struct {
	Leased      *telemetry.Counter
	Completed   *telemetry.Counter
	Failed      *telemetry.Counter
	ResultBytes *telemetry.Counter
	Heartbeats  *telemetry.Counter
	InFlight    *telemetry.Gauge
}

func newWorkerInstruments(reg *telemetry.Registry) *workerInstruments {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &workerInstruments{
		Leased:      reg.Counter("campaignd_worker_cells_leased_total", "Cells leased to this worker."),
		Completed:   reg.Counter("campaignd_worker_cells_completed_total", "Cells this worker ran to completion."),
		Failed:      reg.Counter("campaignd_worker_cells_failed_total", "Cells that failed to run on this worker."),
		ResultBytes: reg.Counter("campaignd_worker_result_bytes_total", "Outcome JSON bytes sent (pre-compression)."),
		Heartbeats:  reg.Counter("campaignd_worker_heartbeats_total", "Heartbeats sent."),
		InFlight:    reg.Gauge("campaignd_worker_cells_in_flight", "Cells currently simulating on this worker."),
	}
}

func (ins *workerInstruments) gauge(d int64) { ins.InFlight.Add(d) }
