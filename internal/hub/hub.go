// Package hub hosts many concurrent operator↔plant sessions in one
// process — the multi-tenant teleoperation control room of DESIGN.md
// §14. Each session owns its own simulated clock, world, netem link
// profile, and run arena, so sessions are mutually deterministic:
// hosting N of them concurrently produces bit-identical trajectories to
// running each alone (the equivalence test pins every canonical
// fingerprint cell through a hub). Immutable scenario artifacts (road
// map, blended route) are shared across all sessions via one
// scenario.ArtifactCache, and run arenas recycle through a freelist
// sized by the worker bound.
//
// The package has two halves. The in-process half (Run, RunMany)
// executes rds sessions on goroutines — the campaign-style batch path
// the hub benchmarks drive. The serving half (Serve, Station) exposes
// the same hosting over one shared TCP listener: remote stations join
// by scenario name and exchange session-id-routed bridge traffic with a
// live per-session bridge.Server (wire.go, serve.go, station.go). Served
// sessions have no goroutine of their own: Workers pacers step them on
// one wall-clock grid of physics ticks and flush each connection once
// per batch of due sessions (pacer.go). Every write to a station has a
// deadline, so a station that stops reading is cut off instead of
// holding the pacers that serve other stations.
package hub

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"teledrive/internal/pool"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
)

// Config configures a Hub.
type Config struct {
	// Workers bounds concurrently executing sessions in RunMany, counts
	// the pacer goroutines that step served sessions, and sizes the
	// run-arena freelist. Non-positive means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, instruments the hub (session gauge/counters)
	// and every hosted session (per-session teledrive_hub_* families for
	// served sessions, the shared bridge families for batch runs).
	Metrics *telemetry.Registry
	// Turbo lets served sessions advance simulated time as fast as the
	// host allows instead of pacing to the wall clock. Batch runs (Run,
	// RunMany) always run turbo — they have no live operator to pace for.
	Turbo bool
}

// Hub hosts sessions. Safe for concurrent use.
type Hub struct {
	cfg  Config
	arts *scenario.ArtifactCache
	ins  *Instruments // nil when Config.Metrics is nil

	active atomic.Int64 // sessions currently executing (batch + served)
	nextID atomic.Uint64

	// Served sessions step on one wall-clock grid, epoch + k·PhysicsTick,
	// each on the pacer its id picks.
	epoch  time.Time
	pacers []*pacer

	mu      sync.Mutex
	scratch []*session.RunScratch // bounded freelist of run arenas
	conns   map[*hubConn]struct{}
	closed  bool
}

// New builds a hub.
func New(cfg Config) *Hub {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	h := &Hub{
		cfg:   cfg,
		arts:  scenario.NewArtifactCache(),
		conns: make(map[*hubConn]struct{}),
		//lint:allow wallclock live serving: the pacing grid of served sessions is anchored in real time
		epoch:  time.Now(),
		pacers: make([]*pacer, cfg.Workers),
	}
	for i := range h.pacers {
		h.pacers[i] = newPacer(h)
	}
	if cfg.Metrics != nil {
		h.ins = NewInstruments(cfg.Metrics)
	}
	return h
}

// Artifacts exposes the hub's shared artifact cache (tests assert
// pointer identity across sessions through it).
func (h *Hub) Artifacts() *scenario.ArtifactCache { return h.arts }

// ActiveSessions reports how many sessions are executing right now.
func (h *Hub) ActiveSessions() int { return int(h.active.Load()) }

// getScratch pops a run arena off the freelist or makes a fresh one.
func (h *Hub) getScratch() *session.RunScratch {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.scratch); n > 0 {
		s := h.scratch[n-1]
		h.scratch[n-1] = nil
		h.scratch = h.scratch[:n-1]
		return s
	}
	return session.NewRunScratch()
}

// putScratch returns an arena to the freelist. Beyond the worker bound
// the arena is dropped — a burst of served sessions must not pin its
// peak footprint forever.
func (h *Hub) putScratch(s *session.RunScratch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.scratch) < h.cfg.Workers {
		h.scratch = append(h.scratch, s)
	}
}

// SessionSpec describes one batch-hosted session: an rds run plus a hub
// display name. The hub owns the sharing fields — Scratch, Artifacts,
// and Metrics in the embedded config are overwritten.
type SessionSpec struct {
	rds.BenchConfig
	// Name labels the session in results and telemetry; empty defaults
	// to the scenario name.
	Name string
}

// SessionResult is one finished batch session.
type SessionResult struct {
	ID   uint64
	Name string
	// Outcome is the run outcome. Its Log aliases a recycled arena and
	// is only valid until the hub reuses the scratch; the rest of it,
	// Fingerprint included, outlives the arena.
	Outcome *rds.Outcome
	// Artifact is the shared immutable scenario artifact this session
	// built its world from — the same pointer for every session that
	// agreed on the scenario.
	Artifact *scenario.Artifact
	// Digest is the run's equivalence digest (rds.OutcomeDigest).
	Digest string
	Err    error
}

// Run executes one batch session synchronously on the caller's
// goroutine, sharing the hub's artifact cache and arena freelist.
func (h *Hub) Run(spec SessionSpec) SessionResult {
	res := SessionResult{ID: h.nextID.Add(1), Name: spec.Name}
	if res.Name == "" && spec.Scenario != nil {
		res.Name = spec.Scenario.Name
	}
	if spec.Scenario == nil {
		res.Err = fmt.Errorf("hub: session %q has no scenario", res.Name)
		return res
	}
	art, err := h.arts.Get(spec.Scenario)
	if err != nil {
		res.Err = fmt.Errorf("hub: session %q artifact: %w", res.Name, err)
		return res
	}
	res.Artifact = art

	scr := h.getScratch()
	defer h.putScratch(scr)
	cfg := spec.BenchConfig
	cfg.Scratch = scr
	cfg.Artifacts = h.arts
	cfg.Metrics = h.cfg.Metrics

	h.active.Add(1)
	if h.ins != nil {
		h.ins.SessionsActive.Inc()
	}
	defer func() {
		h.active.Add(-1)
		if h.ins != nil {
			h.ins.SessionsActive.Dec()
			h.ins.sessionDone(res)
		}
	}()

	out, err := rds.Run(cfg)
	if err != nil {
		res.Err = err
		return res
	}
	res.Outcome = out
	res.Digest = rds.OutcomeDigest(out)
	return res
}

// RunMany executes the specs on pool.Run, the hub's Workers setting
// wide, and returns results in spec order. Each result carries its own
// Err; one failing session does not stop the others.
func (h *Hub) RunMany(specs []SessionSpec) []SessionResult {
	results := make([]SessionResult, len(specs))
	_, _ = pool.Run(len(specs), h.cfg.Workers, func(_, i int) error {
		results[i] = h.Run(specs[i])
		return nil
	})
	return results
}
