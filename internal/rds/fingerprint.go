package rds

import (
	"fmt"
	"io"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/modelvehicle"
	"teledrive/internal/netem"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// FingerprintCell is one canonical scenario×fault×subject drive whose
// trace fingerprint pins refactor equivalence: the golden digests under
// internal/session/testdata were recorded before the session-layer
// extraction and must stay bit-identical after it (and after any future
// change to the run machinery). Regenerate deliberately with
// `make fingerprint` / `cmd/fingerprint -update`.
type FingerprintCell struct {
	Name string
	// Build returns the run configuration. A fresh config per call:
	// scenarios hold single-use worlds.
	Build func() BenchConfig
}

// FingerprintCells returns the canonical equivalence cells: one golden
// run, POI-injected delay and loss runs on all three traffic scenarios,
// a persistent-rule run (the validity-sweep path), and one
// model-vehicle run (scaled plant, datagram link, inherent
// impairments).
func FingerprintCells() []FingerprintCell {
	return []FingerprintCell{
		{Name: "follow/T5/golden", Build: func() BenchConfig {
			return BenchConfig{Scenario: scenario.FollowVehicle(), Profile: mustSubject("T5"), Seed: 5}
		}},
		{Name: "follow/T5/25ms+2%", Build: func() BenchConfig {
			scn := scenario.FollowVehicle()
			assign := make([]faultinject.Condition, len(scn.POIs))
			assign[0] = faultinject.CondDelay25
			assign[2] = faultinject.CondLoss2
			return BenchConfig{Scenario: scn, Profile: mustSubject("T5"), Seed: 5, FaultAssignments: assign}
		}},
		{Name: "slalom/T3/5%", Build: func() BenchConfig {
			scn := scenario.LaneChangeSlalom()
			assign := make([]faultinject.Condition, len(scn.POIs))
			assign[1] = faultinject.CondLoss5
			return BenchConfig{Scenario: scn, Profile: mustSubject("T3"), Seed: 77, FaultAssignments: assign}
		}},
		{Name: "overtake/T2/50ms", Build: func() BenchConfig {
			scn := scenario.Overtake()
			assign := make([]faultinject.Condition, len(scn.POIs))
			for i := range assign {
				assign[i] = faultinject.CondDelay50
			}
			return BenchConfig{Scenario: scn, Profile: mustSubject("T2"), Seed: 9, FaultAssignments: assign}
		}},
		{Name: "training/T5/persistent-40ms", Build: func() BenchConfig {
			return BenchConfig{
				Scenario:        scenario.Training(),
				Profile:         mustSubject("T5"),
				Seed:            5,
				PersistentRule:  &netem.Rule{Delay: 40 * time.Millisecond},
				PersistentLabel: "sweep-40ms",
			}
		}},
		{Name: "model-course/model-op/persistent-20ms", Build: func() BenchConfig {
			// The validity.RunPoint model-vehicle path: scaled plant on
			// the indoor course, datagram link, 20 ms injected delay
			// stacked on the environment's inherent 120 ms / 0.5 %.
			dcfg := modelvehicle.DriverConfig()
			return BenchConfig{
				Scenario:        modelvehicle.Course(),
				Profile:         modelvehicle.Operator(),
				Seed:            3,
				Transport:       &transport.Options{Name: "model", Reliable: false},
				DriverConfig:    &dcfg,
				PersistentRule:  &netem.Rule{Delay: 140 * time.Millisecond, Loss: 0.005},
				PersistentLabel: "delay-20ms",
			}
		}},
	}
}

// RunFingerprint executes one cell and returns its digest: the trace
// fingerprint of the run log combined with the outcome scalars the
// refactor must also preserve.
//
// Every cell runs with the telemetry subsystem fully enabled — a fresh
// registry plus a discarded event sink — while the goldens under
// internal/session/testdata were recorded without telemetry. The suite
// therefore proves, on every `make fingerprint` and every equivalence
// test run, that instrumentation is inert: it consumes no RNG,
// schedules no clock events, and perturbs no trajectory bit.
func RunFingerprint(c FingerprintCell) (string, error) {
	return RunFingerprintPooled(c, nil, nil)
}

// RunFingerprintPooled is RunFingerprint through a caller-owned run
// arena and artifact cache (either may be nil). The CI pooled stage
// drives every canonical cell twice through one RunScratch and checks
// both digests against the goldens recorded before pooling existed —
// the proof that a recycled arena is bit-indistinguishable from fresh
// allocation.
func RunFingerprintPooled(c FingerprintCell, scratch *session.RunScratch, arts *scenario.ArtifactCache) (string, error) {
	cfg := c.Build()
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Events = telemetry.NewEventSink(io.Discard)
	cfg.Scratch = scratch
	cfg.Artifacts = arts
	out, err := Run(cfg)
	if err != nil {
		return "", fmt.Errorf("fingerprint cell %s: %w", c.Name, err)
	}
	return OutcomeDigest(out), nil
}

// OutcomeDigest renders the equivalence digest of a finished run: the
// trace fingerprint plus the outcome scalars a refactor must preserve.
// It reads Outcome.Fingerprint, never the log, so it holds after the
// run's scratch is reused. The format is pinned by the goldens under
// internal/session/testdata — extending it invalidates every recorded
// fingerprint.
func OutcomeDigest(out *Outcome) string {
	return fmt.Sprintf(
		"%s|completed=%v|timedout=%v|injected=%d|egocol=%d|station=%x|ticks=%d|frames=%d/%d|controls=%d|sent=%d/%d",
		out.Fingerprint, out.Completed, !out.Completed, out.Injected,
		out.EgoCollisions, out.FinalStation, out.WallTicks,
		out.ServerStats.FramesSent, out.ServerStats.FramesDropped,
		out.ServerStats.ControlsApplied,
		out.ClientStats.ControlsSent, out.ClientStats.ControlsDropped,
	)
}

func mustSubject(name string) driver.Profile {
	p, ok := driver.SubjectByName(name)
	if !ok {
		panic("rds: unknown fingerprint subject " + name)
	}
	return p
}
