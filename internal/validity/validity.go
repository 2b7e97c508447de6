// Package validity implements the paper's §VIII validity comparison:
// sweeping network-fault magnitudes (delay and packet loss) on both the
// driving simulator and the remotely-operated model vehicle, and
// classifying each point's drivability against the environment's
// fault-free baseline.
//
// Paper findings to reproduce in shape: the simulator degrades at
// >100 ms delay and is unresponsive at >200 ms; 1 % loss has no
// significant effect while 10 % makes driving very difficult. The model
// vehicle degrades already at >20 ms delay and is impossible at
// >100 ms; 7 % loss has a conscious impact and 10 % is impossible.
package validity

import (
	"fmt"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/metrics"
	"teledrive/internal/modelvehicle"
	"teledrive/internal/netem"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// Drivability is the qualitative outcome of one sweep point.
type Drivability int

// Drivability grades, ordered from best to worst.
const (
	DrivOK Drivability = iota + 1
	DrivDegraded
	DrivDifficult
	DrivImpossible
)

// String renders the grade.
func (d Drivability) String() string {
	switch d {
	case DrivOK:
		return "ok"
	case DrivDegraded:
		return "degraded"
	case DrivDifficult:
		return "difficult"
	case DrivImpossible:
		return "impossible"
	default:
		return fmt.Sprintf("drivability(%d)", int(d))
	}
}

// Env describes one environment under test.
type Env struct {
	Name string
	// NewScenario builds a fresh scenario per run.
	NewScenario func() *scenario.Scenario
	Profile     driver.Profile
	// DriverConfig may be nil (sedan defaults).
	DriverConfig *driver.Config
	// Transport: the simulator uses the reliable TCP-like channel; the
	// model vehicle's smartphone link is datagram-style.
	Transport transport.Options
	// BaseDelay/BaseLoss are the environment's inherent link
	// impairments, present even at the "no fault" point. The paper's
	// model vehicle streams video through a smartphone camera over a
	// cellular link: its baseline latency is why an extra 20 ms already
	// degrades driving while the simulator shrugs off 50 ms.
	BaseDelay time.Duration
	BaseLoss  float64
	// Metrics, when non-nil, instruments every sweep run and the sweep
	// progress counters (see rds.BenchConfig.Metrics). Inert: sweep
	// results are bit-identical with or without it.
	Metrics *telemetry.Registry
}

// Simulator returns the CARLA-analogue environment driven by the given
// subject on the training-town course (free driving isolates the
// network effect from traffic randomness).
func Simulator(profile driver.Profile) Env {
	return Env{
		Name:        "simulator",
		NewScenario: scenario.Training,
		Profile:     profile,
		Transport:   transport.Options{Name: "sim", Reliable: true},
	}
}

// ModelVehicle returns the scale-model-car environment: the same driver
// model on the RC-car plant and indoor course, with a datagram
// (smartphone-camera style) video link.
func ModelVehicle() Env {
	cfg := modelvehicle.DriverConfig()
	return Env{
		Name:         "model-vehicle",
		NewScenario:  modelvehicle.Course,
		Profile:      modelvehicle.Operator(),
		DriverConfig: &cfg,
		Transport:    transport.Options{Name: "model", Reliable: false},
		BaseDelay:    120 * time.Millisecond,
		BaseLoss:     0.005,
	}
}

// Point is one sweep measurement.
type Point struct {
	Env   string
	Label string
	Rule  netem.Rule

	Completed      bool
	Collisions     int
	LaneDepartures int
	// FailedInjections counts fault injections the plant refused during
	// this point: the injected magnitude was never experienced, so the
	// measurement is an invalid test execution (cmd/sweep -strict fails
	// the sweep when any point reports one).
	FailedInjections int
	SRR              float64
	MeanSpeed        float64
	TaskDuration     time.Duration
	MeanAbsLateral   float64
	// LaneWidth scales the lateral-error thresholds (a 7 cm wander is
	// nothing on a 3.5 m lane and severe on a 0.6 m model track).
	LaneWidth float64

	Grade Drivability
}

// RunPoint executes one sweep point.
func RunPoint(env Env, rule netem.Rule, label string, seed int64) (Point, error) {
	scn := env.NewScenario()
	laneWidth := scn.LaneWidth
	topts := env.Transport
	// Stack the injected rule on the environment's inherent impairments;
	// the Point reports the *injected* magnitudes.
	injected := rule
	rule.Delay += env.BaseDelay
	if env.BaseLoss > rule.Loss {
		rule.Loss = env.BaseLoss
	}
	var ruleP *netem.Rule
	if rule != (netem.Rule{}) {
		ruleP = &rule
	}
	out, err := rds.Run(rds.BenchConfig{
		Scenario:        scn,
		Profile:         env.Profile,
		Seed:            seed,
		Transport:       &topts,
		DriverConfig:    env.DriverConfig,
		PersistentRule:  ruleP,
		PersistentLabel: label,
		Metrics:         env.Metrics,
	})
	if err != nil {
		return Point{}, err
	}
	p := Point{
		Env:              env.Name,
		Label:            label,
		Rule:             injected,
		Completed:        out.Completed,
		Collisions:       out.EgoCollisions,
		FailedInjections: out.FailedInjections,
		TaskDuration:     out.Log.Duration(),
		LaneWidth:        laneWidth,
	}
	var steer []float64
	var absLat, speedSum float64
	for _, e := range out.Log.Ego {
		steer = append(steer, e.Steer)
		if e.Lateral < 0 {
			absLat -= e.Lateral
		} else {
			absLat += e.Lateral
		}
		speedSum += e.Speed
	}
	if n := len(out.Log.Ego); n > 0 {
		p.MeanAbsLateral = absLat / float64(n)
		p.MeanSpeed = speedSum / float64(n)
	}
	srrCfg := metrics.DefaultSRRConfig()
	if res, err := metrics.ComputeSRR(steer, srrCfg); err == nil {
		p.SRR = res.RatePerMin
	}
	for _, ev := range out.Log.LaneInvasions {
		if ev.Kind == "departed" {
			p.LaneDepartures++
		}
	}
	return p, nil
}

// Classify grades a point against the environment's fault-free
// baseline. Lateral thresholds scale with the lane width so the same
// rules grade both the full-size simulator and the scale model track.
func Classify(p, baseline Point) Drivability {
	lane := p.LaneWidth
	if lane <= 0 {
		lane = 3.5
	}
	switch {
	case !p.Completed || p.Collisions >= 2,
		p.MeanAbsLateral > 4*baseline.MeanAbsLateral+0.06*lane:
		return DrivImpossible
	case p.Collisions > 0,
		p.LaneDepartures > baseline.LaneDepartures+2,
		p.SRR > 2.5*baseline.SRR+4,
		p.MeanSpeed < 0.55*baseline.MeanSpeed,
		p.MeanAbsLateral > 2.5*baseline.MeanAbsLateral+0.03*lane:
		return DrivDifficult
	case p.LaneDepartures > baseline.LaneDepartures,
		p.SRR > 1.4*baseline.SRR+1.5,
		p.MeanAbsLateral > 1.5*baseline.MeanAbsLateral+0.008*lane,
		p.MeanSpeed < 0.85*baseline.MeanSpeed:
		return DrivDegraded
	default:
		return DrivOK
	}
}

// PaperDelays returns the delay magnitudes discussed in §VIII.
func PaperDelays() []time.Duration {
	return []time.Duration{
		5 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond,
	}
}

// PaperLosses returns the loss magnitudes discussed in §VIII.
func PaperLosses() []float64 { return []float64{0.01, 0.02, 0.05, 0.07, 0.10} }

// ModelDelays returns the delay set for the model vehicle (§VIII adds
// the 20 ms threshold).
func ModelDelays() []time.Duration {
	return []time.Duration{
		5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond,
	}
}

// GridPoint is one cell of a combined delay×loss sweep.
type GridPoint struct {
	Delay time.Duration
	Loss  float64
	Point Point
}
