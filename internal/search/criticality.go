package search

import (
	"math"

	"teledrive/internal/core"
	"teledrive/internal/metrics"
)

// Signals are the per-cell safety signals the search scores. They are
// extracted once from a core.Result and journaled, so a resumed search
// re-scores cells without re-simulating them. MinTTC is gated by
// TTCValid instead of using +Inf because the journal is JSON and JSON
// cannot encode infinities.
type Signals struct {
	// TTCValid is false when the run collected no gated TTC sample (no
	// lead inside the 100 m gate while closing).
	TTCValid bool `json:"ttc_valid,omitempty"`
	// MinTTC is the run's pooled minimum gated TTC, s (0 when !TTCValid).
	MinTTC float64 `json:"min_ttc,omitempty"`
	// DangerousShare is the fraction of gated TTC samples below the 6 s
	// threshold.
	DangerousShare float64 `json:"dangerous_share,omitempty"`
	// DangerousTime is the pooled time-exposed-below-threshold, s.
	DangerousTime float64 `json:"dangerous_time_s,omitempty"`
	// Collisions counts ego collision events.
	Collisions int `json:"collisions,omitempty"`
	// ControlsDropped counts operator commands lost to a saturated
	// uplink.
	ControlsDropped uint64 `json:"controls_dropped,omitempty"`
	// FailedInjections counts refused POI injections (nonzero = invalid
	// test execution).
	FailedInjections int `json:"failed_injections,omitempty"`
	// Completed is true when the ego reached the scenario end station.
	Completed bool `json:"completed"`
}

// SignalsFrom extracts the search's scoring signals from one run.
func SignalsFrom(r *core.Result) Signals {
	s := Signals{
		DangerousShare:   r.Analysis.DangerousTTCShare,
		DangerousTime:    r.Analysis.DangerousTTCTime.Seconds(),
		Collisions:       r.Analysis.EgoCollisions,
		ControlsDropped:  r.Outcome.ClientStats.ControlsDropped,
		FailedInjections: r.Outcome.FailedInjections,
		Completed:        r.Outcome.Completed,
	}
	if !math.IsInf(r.Analysis.MinTTC, 1) {
		s.TTCValid = true
		s.MinTTC = r.Analysis.MinTTC
	}
	return s
}

// Weights turn Signals into a scalar criticality. Larger = more
// safety-critical. The zero value is replaced by DefaultWeights.
type Weights struct {
	// Collision is the score per ego collision — the dominant term: a
	// crash outranks any near-miss.
	Collision float64 `json:"collision"`
	// TTCMargin scores how deep the minimum TTC dips under the 6 s
	// threshold (linear in the normalized margin, capped at 1).
	TTCMargin float64 `json:"ttc_margin"`
	// Exposure scores the dangerous-TTC sample share.
	Exposure float64 `json:"exposure"`
	// Drops scores saturated-uplink control loss, log-compressed
	// (log1p) so a pathological cell cannot drown the safety terms.
	Drops float64 `json:"drops"`
	// Incomplete scores runs that never reached the end station (the
	// scenario timed out — often a frozen or crawling ego).
	Incomplete float64 `json:"incomplete"`
}

// DefaultWeights order the terms crash > exposure > TTC margin >
// incompletion > control loss.
func DefaultWeights() Weights {
	return Weights{Collision: 10, TTCMargin: 2, Exposure: 3, Drops: 0.1, Incomplete: 1}
}

// IsZero reports an unset Weights value.
func (w Weights) IsZero() bool { return w == (Weights{}) } //lint:allow floateq zero-value config sentinel meaning "use DefaultWeights"; never a computed value

// Score computes the scalar criticality of one cell.
func (w Weights) Score(s Signals) float64 {
	c := w.Collision * float64(s.Collisions)
	if s.TTCValid && s.MinTTC < metrics.DefaultTTCThreshold {
		margin := (metrics.DefaultTTCThreshold - s.MinTTC) / metrics.DefaultTTCThreshold
		if margin > 1 {
			margin = 1
		}
		c += w.TTCMargin * margin
	}
	c += w.Exposure * s.DangerousShare
	c += w.Drops * math.Log1p(float64(s.ControlsDropped))
	if !s.Completed {
		c += w.Incomplete
	}
	return c
}
