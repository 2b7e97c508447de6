// Package rds composes the full Remote Driving System of the paper's
// §III-A — vehicle subsystem (bridge server over the simulated world),
// operator subsystem (bridge client + driver model at the driving
// station), and communication network subsystem (netem duplex with the
// fault injector) — and runs a scenario end-to-end through the
// internal/session lifecycle.
package rds

import (
	"fmt"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/netem"
	"teledrive/internal/scenario"
	"teledrive/internal/sensors"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/telemetry"
	"teledrive/internal/telemetry/obs"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// StationSpec is the driving-station configuration — the paper's
// Table I, plus the modelled control parameters.
type StationSpec struct {
	CPUAndRAM     string
	Monitor       string
	InputDevice   string
	GPU           string
	OS            string
	NvidiaDriver  string
	WheelRangeDeg float64
	// ControlPeriod is the station's input-polling/command period.
	ControlPeriod time.Duration
}

// PaperStation reproduces Table I.
func PaperStation() StationSpec {
	return StationSpec{
		CPUAndRAM:     "Intel Core i7-12700K (12-core), 16 Gb RAM",
		Monitor:       "34\" Samsung WQHD (3440x1440) curved",
		InputDevice:   "Logitech G27 steering wheel and pedals",
		GPU:           "NVIDIA GeForce RTX 3080, 10 Gb",
		OS:            "Ubuntu 18.04",
		NvidiaDriver:  "470.103.01",
		WheelRangeDeg: 900,
		ControlPeriod: 20 * time.Millisecond,
	}
}

// Rows renders the spec as (field, value) pairs in Table I order.
func (s StationSpec) Rows() [][2]string {
	return [][2]string{
		{"CPU and RAM", s.CPUAndRAM},
		{"Monitor", s.Monitor},
		{"Input device", s.InputDevice},
		{"GPU", s.GPU},
		{"Operating system", s.OS},
		{"NVIDIA driver", s.NvidiaDriver},
	}
}

// BenchConfig configures one run of one subject through one scenario.
type BenchConfig struct {
	Scenario *scenario.Scenario
	Profile  driver.Profile
	// Seed decorrelates network and campaign randomness between runs.
	Seed int64
	// FaultAssignments maps each scenario POI to the condition injected
	// there. nil or all-CondNFI makes this a golden run.
	FaultAssignments []faultinject.Condition
	// FaultRules, when non-nil, overrides FaultAssignments per POI with
	// arbitrary labelled netem rules (one entry per POI; nil entries fall
	// back to the condition assignment). This is the adversarial search's
	// perturbed fault space — delay/jitter/loss magnitudes between and
	// beyond the paper's five conditions.
	FaultRules []*faultinject.RuleAssignment
	// Transport defaults to the reliable (TCP-like) channel.
	Transport *transport.Options
	// NewStack, when non-nil, replaces session.NewStack. Drives always
	// run on session.NewStack; the bench probe wraps it to keep the
	// stack, and tests wrap it to impair a link. The built link must
	// have a fault surface.
	NewStack session.StackBuilder
	// DriverConfig, when non-nil, overrides the task-derived default
	// (used by the model-vehicle validity experiments).
	DriverConfig *driver.Config
	// PersistentRule, when non-nil, is applied to both links for the
	// whole run (the §VIII validity sweeps use arbitrary delay/loss
	// values beyond the five campaign conditions). PersistentLabel
	// names it in the logs.
	PersistentRule  *netem.Rule
	PersistentLabel string
	// InjectDirection restricts POI fault injection to one direction
	// (ablation; the paper's loopback injection is bidirectional).
	InjectDirection faultinject.Direction
	// FrameInterval overrides the camera frame period (ablation; the
	// paper's feed ran at 25-30 fps).
	FrameInterval time.Duration
	// DeltaStreaming ships the downlink as keyframe+diff world views
	// (DESIGN.md §14). Delta streaming changes wire sizes — and
	// therefore netem RNG draws and trajectories on an impaired link —
	// so the canonical fingerprint cells leave it off.
	DeltaStreaming bool
	// KeyframeEvery bounds the diff chain length when DeltaStreaming is
	// on (non-positive = bridge.DefaultKeyframeEvery).
	KeyframeEvery int
	// OnStationFrame, when non-nil, runs for every frame the station
	// displays — after the spine's Frame observers, with the reconstructed
	// view. Hub hosting and the delta equivalence tests tap it; the view
	// is only valid during the call (the client double-buffers).
	OnStationFrame func(view sensors.WorldView, latency time.Duration)
	// Observers are appended to the session's spine after the trace
	// recorder: they see every tick, frame, fault, collision and
	// condition span of the run. Tick/Frame handlers must not allocate
	// (the per-tick hot path is pinned at zero allocations).
	Observers []session.Observer
	// Metrics, when non-nil, activates the telemetry subsystem for this
	// run: a telemetry.SessionObserver joins the spine and native
	// instruments attach to the netem links and the bridge endpoints.
	// Concurrent runs may share one registry — instruments aggregate.
	// Telemetry is inert: an instrumented run is bit-identical to a bare
	// one (the fingerprint suite drives every canonical cell with a
	// registry attached against goldens recorded without one).
	Metrics *telemetry.Registry
	// Events, when non-nil, receives the run's sparse structured events
	// (phases, faults, condition spans, collisions) as JSONL. Ignored
	// unless Metrics is set.
	Events *telemetry.EventSink
	// Scratch, when non-nil, is the caller's reusable run arena
	// (one per campaign worker): the world builds into its world.Arena,
	// telemetry records into its recycled RunLog, and its transport
	// pools feed the stack. Run resets it first, so the returned
	// Outcome.Log stays valid only until the next Run with the same
	// scratch. Never share one Scratch between concurrent runs.
	Scratch *session.RunScratch
	// Artifacts, when non-nil, shares the scenario's immutable artifact
	// (road map, blended route) with every other run that agrees on it —
	// including concurrent ones; the cache is safe for concurrent use.
	Artifacts *scenario.ArtifactCache
}

// Validate reports configuration errors.
func (c *BenchConfig) Validate() error {
	if c.Scenario == nil {
		return fmt.Errorf("rds: config needs a scenario")
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.FaultAssignments != nil && len(c.FaultAssignments) != len(c.Scenario.POIs) {
		return fmt.Errorf("rds: %d fault assignments for %d POIs", len(c.FaultAssignments), len(c.Scenario.POIs))
	}
	if c.FaultRules != nil && len(c.FaultRules) != len(c.Scenario.POIs) {
		return fmt.Errorf("rds: %d fault rules for %d POIs", len(c.FaultRules), len(c.Scenario.POIs))
	}
	for i, r := range c.FaultRules {
		if r == nil {
			continue
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rds: fault rule for POI %d: %w", i, err)
		}
	}
	return nil
}

// IsGolden reports whether the config describes a golden (no-fault)
// run.
func (c *BenchConfig) IsGolden() bool {
	for _, r := range c.FaultRules {
		if r != nil {
			return false
		}
	}
	for _, a := range c.FaultAssignments {
		if a != faultinject.CondNFI {
			return false
		}
	}
	return true
}

// Outcome is the result of one bench run.
type Outcome struct {
	// Log is the drive's run log. With a BenchConfig.Scratch it lives in
	// the scratch and is valid only until the next Run on it; everything
	// else in the Outcome, Fingerprint included, outlives it.
	Log *trace.RunLog
	// Fingerprint is trace.Fingerprint of Log, taken when the drive
	// ended. It stays off the wire (json:"-"): a decoder recomputes it
	// from the decoded log, which proves the round-trip exact.
	Fingerprint string `json:"-"`
	// Completed is true when the ego reached the scenario end station;
	// false means the scenario timeout expired first.
	Completed bool
	// Injected counts how many POIs actually saw a fault injected
	// (a POI is skipped when its assignment is CondNFI).
	Injected int
	// FailedInjections counts POI injections the injector refused —
	// each is also a Faults log record with action "error". Nonzero
	// means the run did not experience its assigned conditions and the
	// cell should be treated as an invalid test execution.
	FailedInjections int
	// EgoCollisions counts collision events involving the ego.
	EgoCollisions int
	ServerStats   bridge.ServerStats
	// ClientStats.ControlsDropped counts operator commands lost to a
	// full uplink send window.
	ClientStats bridge.ClientStats
	// FinalStation is the ego's route station at the end of the run.
	FinalStation float64
	// WallTicks counts physics ticks executed.
	WallTicks uint64
}

// Run executes one complete scenario drive and returns the outcome.
//
// It assembles the paper's standard stack — bridge plant, netem
// link, driver-model operator, POI supervisor, trace recorder on the
// observer spine — and hands the lifecycle to internal/session. The
// wiring order below is load-bearing: simclock fires same-instant
// timers in scheduling order, and the golden fingerprints
// (internal/session/testdata) pin the resulting trajectories bit for
// bit.
func Run(cfg BenchConfig) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topts := transport.Options{Name: "bridge", Reliable: true}
	if cfg.Transport != nil {
		topts = *cfg.Transport
	}
	if cfg.Scratch != nil {
		// The scratch's pools outlive the run.
		topts.Pools = cfg.Scratch.Pools
	}
	build := cfg.NewStack
	if build == nil {
		build = session.NewStack
	}

	if cfg.Scratch != nil {
		cfg.Scratch.Reset()
	}
	var built *scenario.Built
	var err error
	if cfg.Artifacts != nil || cfg.Scratch != nil {
		var art *scenario.Artifact
		if cfg.Artifacts != nil {
			art, err = cfg.Artifacts.Get(cfg.Scenario)
		} else {
			art, err = cfg.Scenario.BuildArtifact()
		}
		if err != nil {
			return nil, err
		}
		var arena *world.Arena
		if cfg.Scratch != nil {
			arena = cfg.Scratch.World
		}
		built, err = cfg.Scenario.BuildWith(art, arena)
	} else {
		built, err = cfg.Scenario.Build()
	}
	if err != nil {
		return nil, err
	}
	clock := simclock.New()
	stack, err := build(clock, built.World, built.Ego, cfg.Seed, topts)
	if err != nil {
		return nil, err
	}

	runType := "faulty"
	if cfg.IsGolden() && cfg.PersistentRule == nil {
		runType = "golden"
	}
	log := &trace.RunLog{}
	if cfg.Scratch != nil {
		// Recycled log: Reset above cleared it, capacity intact.
		log = &cfg.Scratch.Log
	}
	log.Subject = cfg.Profile.Name
	log.Scenario = cfg.Scenario.Name
	log.RunType = runType
	log.Seed = cfg.Seed
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)

	// The spine: recorder first, so later observers see a world the log
	// already describes. The telemetry observer rides last — it is pure
	// instrumentation and must see exactly what every other subscriber
	// saw.
	spine := make(session.Observers, 0, 2+len(cfg.Observers))
	spine = append(spine, session.Record(rec))
	spine = append(spine, cfg.Observers...)
	if cfg.Metrics != nil {
		spine = append(spine, obs.NewSessionObserver(cfg.Metrics, cfg.Events))
	}

	// Operator-display frames feed the spine (the recorder ignores
	// them; latency observers ride along for free).
	stack.Client.OnFrame = func(view sensors.WorldView, latency time.Duration) {
		spine.Frame(clock.Now(), view.Frame, latency)
		if cfg.OnStationFrame != nil {
			cfg.OnStationFrame(view, latency)
		}
	}

	faults := stack.Link.Faults()
	inj, err := faultinject.NewInjector(faults, clock.Now)
	if err != nil {
		return nil, err
	}
	inj.OnChange = spine.Fault
	inj.Direction = cfg.InjectDirection

	// Native subsystem instruments: netem links, bridge endpoints. All
	// handles bind here, at wiring time; the per-tick/per-packet paths
	// see only nil-checked atomics.
	if cfg.Metrics != nil {
		faults.Instrument(cfg.Metrics)
		stack.Plant.SetInstruments(bridge.NewServerInstruments(cfg.Metrics))
		stack.Client.SetInstruments(bridge.NewClientInstruments(cfg.Metrics))
	}

	dcfg := driver.DefaultConfig(cfg.Profile, built.Task)
	if cfg.DriverConfig != nil {
		dcfg = *cfg.DriverConfig
		dcfg.Profile = cfg.Profile
		dcfg.Task = built.Task
	}
	drv, err := driver.New(clock, stack.Client, dcfg)
	if err != nil {
		return nil, err
	}

	sup := session.NewPOISupervisor(cfg.Scenario, built.Ego, built.Route, inj, cfg.FaultAssignments, cfg.FaultRules, spine)

	sess := &session.Session{
		Clock:         clock,
		Stack:         stack,
		Operator:      drv,
		Supervisor:    sup,
		Observers:     spine,
		ControlPeriod: PaperStation().ControlPeriod,
		Timeout:       cfg.Scenario.Timeout,
		Wire: func(spine session.Observers) error {
			if cfg.FrameInterval > 0 {
				stack.Plant.SetFrameInterval(cfg.FrameInterval)
			}
			if cfg.DeltaStreaming {
				stack.Plant.SetDeltaStreaming(true, cfg.KeyframeEvery)
			}
			if cfg.PersistentRule != nil {
				if err := faults.ApplyBoth(*cfg.PersistentRule); err != nil {
					return fmt.Errorf("rds: persistent rule: %w", err)
				}
				label := cfg.PersistentLabel
				if label == "" {
					label = cfg.PersistentRule.String()
				}
				spine.Condition(0, label)
			}
			if cfg.Scenario.Weather != "" {
				if _, err := stack.Client.SendMeta("set_weather", map[string]string{"weather": cfg.Scenario.Weather}); err != nil {
					return err
				}
			}
			return nil
		},
	}

	res, err := sess.Run()
	if err != nil {
		return nil, err
	}

	out := &Outcome{
		Log:              log,
		Fingerprint:      trace.Fingerprint(log),
		Completed:        res.Completed,
		Injected:         sup.Injected(),
		FailedInjections: sup.FailedInjections(),
		ServerStats:      stack.Plant.Stats(),
		ClientStats:      stack.Client.Stats(),
		FinalStation:     sup.FinalStation(),
		WallTicks:        res.WallTicks,
	}
	for _, c := range log.Collisions {
		if c.Actor == built.Ego.ID || c.Other == built.Ego.ID {
			out.EgoCollisions++
		}
	}
	return out, nil
}
