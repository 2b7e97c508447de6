package session

import (
	"time"

	"teledrive/internal/faultinject"
	"teledrive/internal/geom"
	"teledrive/internal/scenario"
	"teledrive/internal/world"
)

// POISupervisor implements the paper's scenario supervision (§V-E):
// it tracks the ego's route station every physics tick, injects the
// assigned fault condition when the ego enters a point of interest,
// clears it on exit, and ends the scenario at the end station. Each
// POI fires at most once (one fault per situation of interest).
type POISupervisor struct {
	scn    *scenario.Scenario
	ego    *world.Actor
	proj   *geom.Projector
	inj    *faultinject.Injector
	assign []faultinject.Condition
	rules  []*faultinject.RuleAssignment
	spine  Observers

	activePOI int
	fired     []bool
	done      bool

	station  float64
	injected int
	failed   int
}

// NewPOISupervisor builds the supervisor for one run. assign maps each
// scenario POI to the condition injected there (nil = golden run).
// rules, when non-nil, holds one per-POI netem-rule override per
// scenario POI: a non-nil entry replaces the POI's canonical condition
// with an arbitrary rule (the adversarial search's perturbed fault
// space); nil entries fall back to the condition assignment. spine
// receives the supervisor's condition spans and failed-injection
// records.
func NewPOISupervisor(scn *scenario.Scenario, ego *world.Actor, route *geom.Path, inj *faultinject.Injector, assign []faultinject.Condition, rules []*faultinject.RuleAssignment, spine Observers) *POISupervisor {
	return &POISupervisor{
		scn:       scn,
		ego:       ego,
		proj:      geom.NewProjector(route),
		inj:       inj,
		assign:    assign,
		rules:     rules,
		spine:     spine,
		activePOI: -1,
		fired:     make([]bool, len(scn.POIs)),
	}
}

// ruleAt returns the rule override for POI i, if any.
func (s *POISupervisor) ruleAt(i int) *faultinject.RuleAssignment {
	if i < 0 || i >= len(s.rules) {
		return nil
	}
	return s.rules[i]
}

// OnTick implements Supervisor: POI transitions and end detection.
func (s *POISupervisor) OnTick(now time.Duration) {
	st, _ := s.proj.Project(s.ego.Pose().Pos)
	s.station = st

	cur := -1
	for i, poi := range s.scn.POIs {
		if st >= poi.From && st < poi.To {
			cur = i
			break
		}
	}
	if cur != s.activePOI {
		if s.activePOI >= 0 && s.inj.Active() != faultinject.CondNFI {
			s.inj.Clear()
			s.spine.Condition(now, "")
		}
		s.activePOI = cur
		if cur >= 0 && !s.fired[cur] {
			switch {
			case s.ruleAt(cur) != nil:
				s.fired[cur] = true
				r := s.ruleAt(cur)
				if err := s.inj.InjectRule(*r); err != nil {
					// A refused injection is a test-execution fault,
					// not a silent no-op: log it and count it so the
					// outcome can flag the cell invalid.
					s.failed++
					s.spine.Fault(now, "both", "error", err.Error(), r.Label)
				} else {
					s.spine.Condition(now, r.Label)
					s.injected++
				}
			case s.assign != nil:
				s.fired[cur] = true
				if cond := s.assign[cur]; cond != faultinject.CondNFI {
					if err := s.inj.Inject(cond); err != nil {
						s.failed++
						s.spine.Fault(now, "both", "error", err.Error(), cond.String())
					} else {
						s.spine.Condition(now, cond.String())
						s.injected++
					}
				}
			}
		}
	}

	if st >= s.scn.EndStation {
		s.done = true
	}
}

// Done implements Supervisor.
func (s *POISupervisor) Done() bool { return s.done }

// Finish implements Supervisor: clears any fault still injected at run
// end and closes its condition span.
func (s *POISupervisor) Finish(now time.Duration) {
	if s.inj.Active() != faultinject.CondNFI {
		s.inj.Clear()
		s.spine.Condition(now, "")
	}
}

// Injected counts POIs that actually saw a fault injected.
func (s *POISupervisor) Injected() int { return s.injected }

// FailedInjections counts injections refused by the injector.
func (s *POISupervisor) FailedInjections() int { return s.failed }

// FinalStation is the ego's route station at the last tick.
func (s *POISupervisor) FinalStation() float64 { return s.station }
