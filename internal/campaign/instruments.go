package campaign

import (
	"strconv"

	"teledrive/internal/core"
	"teledrive/internal/telemetry"
)

// Instruments is the campaign runner's native telemetry: cell progress,
// worker utilization, and the two run-validity counters the analysis
// cares about (failed injections invalidate a cell; dropped controls
// mean the uplink saturated). All handles bind once in newInstruments —
// the execute loop touches only pre-bound atomics, so telemetry adds no
// synchronization beyond what the pool already has and cannot perturb
// cell scheduling or results.
type Instruments struct {
	// CellsPlanned counts cells enumerated by the plan phase.
	CellsPlanned *telemetry.Counter
	// CellsInFlight tracks cells currently simulating.
	CellsInFlight *telemetry.Gauge
	// CellsOK / CellsFailed count finished cells by outcome.
	CellsOK     *telemetry.Counter
	CellsFailed *telemetry.Counter
	// Workers reports the resolved pool width for the current execute.
	Workers *telemetry.Gauge
	// FailedInjections aggregates rds.Outcome.FailedInjections across
	// cells: POI injections the injector refused. Nonzero marks invalid
	// test executions (the paper's cells must experience their assigned
	// conditions).
	FailedInjections *telemetry.Counter
	// ControlsDropped aggregates operator commands lost to a saturated
	// uplink send window across cells.
	ControlsDropped *telemetry.Counter

	// workerCells counts cells completed per worker — the utilization
	// spread shows pool balance. Handles are pre-bound per worker index
	// at execute time.
	workerCells telemetry.CounterVec
}

// NewInstruments binds the campaign instrument set in reg. Binding is
// idempotent: the execute phase and a progress display can each bind
// against the same registry and observe the same series.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	cells := reg.CounterVec("teledrive_campaign_cells_total",
		"Campaign cells by lifecycle event (planned/done/failed).", "event")
	return &Instruments{
		CellsPlanned: cells.With("planned"),
		CellsOK:      cells.With("done"),
		CellsFailed:  cells.With("failed"),
		CellsInFlight: reg.Gauge("teledrive_campaign_cells_in_flight",
			"Cells currently simulating on the worker pool."),
		Workers: reg.Gauge("teledrive_campaign_workers",
			"Resolved worker-pool width of the running execute phase."),
		FailedInjections: reg.Counter("teledrive_campaign_failed_injections_total",
			"POI injections the fault injector refused, across all cells (nonzero = invalid test executions)."),
		ControlsDropped: reg.Counter("teledrive_campaign_controls_dropped_total",
			"Operator commands lost to a full uplink send window, across all cells."),
		workerCells: reg.CounterVec("teledrive_campaign_worker_cells_total",
			"Cells completed per pool worker (utilization spread).", "worker"),
	}
}

// WorkerCells pre-binds the per-worker completion counter for worker i.
func (ins *Instruments) WorkerCells(i int) *telemetry.Counter {
	return ins.workerCells.With(strconv.Itoa(i))
}

// Done returns the number of cells finished so far (either outcome) —
// the numerator of a progress display.
func (ins *Instruments) Done() uint64 {
	return ins.CellsOK.Value() + ins.CellsFailed.Value()
}

// cellDone records one finished cell on the pre-bound handles (nil-safe:
// an uninstrumented campaign passes a nil receiver). A successful cell
// also folds its validity counters — refused injections and dropped
// controls — into the campaign aggregates.
func (ins *Instruments) cellDone(r *core.Result, worker *telemetry.Counter, err error) {
	if ins == nil {
		return
	}
	ins.CellsInFlight.Dec()
	worker.Inc()
	if err != nil || r == nil {
		ins.CellsFailed.Inc()
		return
	}
	ins.CellsOK.Inc()
	ins.FailedInjections.Add(uint64(r.Outcome.FailedInjections))
	ins.ControlsDropped.Add(r.Outcome.ClientStats.ControlsDropped)
}
