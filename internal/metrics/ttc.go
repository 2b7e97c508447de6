package metrics

import (
	"math"
	"time"
)

// DefaultTTCGatingDistance reproduces the paper's §VI-C rule: TTC is
// only computed while the relative distance between lead and ego is at
// most 100 m (longer distances trivially give huge TTC at urban speeds).
const DefaultTTCGatingDistance = 100.0

// DefaultTTCThreshold is the 6 s safety threshold the paper adopts from
// Vogel [13]: TTC > 6 s is not considered dangerous.
const DefaultTTCThreshold = 6.0

// MinClosingSpeed gates TTC sampling: below this closing speed the pair
// is effectively co-moving and TTC is numerically meaningless (a rail
// lead holding speed exactly would otherwise produce 10⁵-second TTCs;
// human-driven pairs in the paper always jitter above this).
const MinClosingSpeed = 1.0

// TTC computes the paper's §V-G1 time-to-collision for one instant:
//
//	TTC = (xLead − xEgo) / (vEgo − vLead)
//
// with positions measured along the road. It returns +Inf when the
// vehicles are not closing (vEgo ≤ vLead).
func TTC(xEgo, vEgo, xLead, vLead float64) float64 {
	closing := vEgo - vLead
	if closing <= 0 {
		return math.Inf(1)
	}
	gap := xLead - xEgo
	if gap < 0 {
		return 0
	}
	return gap / closing
}

// TTCCollector accumulates gated TTC samples over a run.
type TTCCollector struct {
	// GatingDistance defaults to DefaultTTCGatingDistance when 0.
	GatingDistance float64
	samples        []Sample
	exposure       time.Duration // time with 0 < TTC < DefaultTTCThreshold (TET)
	lastTime       time.Duration
	haveLast       bool
}

// NewTTCCollector creates a collector with the paper's gating distance;
// exposure and violations use DefaultTTCThreshold.
func NewTTCCollector() *TTCCollector {
	return &TTCCollector{GatingDistance: DefaultTTCGatingDistance}
}

// Record ingests one tick of ego/lead road positions (metres along the
// route) and speeds. Samples outside the gating distance or with no
// lead (xLead = NaN) are skipped.
func (c *TTCCollector) Record(now time.Duration, xEgo, vEgo, xLead, vLead float64) {
	gate := c.GatingDistance
	if gate == 0 { //lint:allow floateq zero-value config sentinel meaning "use the default"; never a computed value
		gate = DefaultTTCGatingDistance
	}
	if math.IsNaN(xLead) || math.IsNaN(vLead) {
		c.haveLast = false
		return
	}
	dist := xLead - xEgo
	if dist < 0 || dist > gate {
		c.haveLast = false
		return
	}
	if vEgo-vLead < MinClosingSpeed {
		c.haveLast = false
		return
	}
	ttc := TTC(xEgo, vEgo, xLead, vLead)
	if math.IsInf(ttc, 1) {
		c.haveLast = false
		return
	}
	c.samples = append(c.samples, Sample{Time: now, Value: ttc})
	if c.haveLast && ttc > 0 && ttc < DefaultTTCThreshold {
		c.exposure += now - c.lastTime
	}
	c.lastTime = now
	c.haveLast = true
}

// Samples returns the collected gated TTC samples.
func (c *TTCCollector) Samples() []Sample { return c.samples }

// Result summarizes the collected TTC samples.
type TTCResult struct {
	// Valid is false when no gated samples were collected (the paper's
	// "-" cells: fault never injected or distance always > 100 m).
	Valid bool
	// N is the number of gated samples.
	N   int
	Min float64
	Avg float64
	Max float64
	// Violations counts samples with 0 < TTC < threshold.
	Violations int
	// TET is the total time exposed below the threshold.
	TET time.Duration
}

// Result computes the summary.
func (c *TTCCollector) Result() TTCResult {
	if len(c.samples) == 0 {
		return TTCResult{}
	}
	st := Stats(Values(c.samples))
	violations := 0
	for _, s := range c.samples {
		if s.Value > 0 && s.Value < DefaultTTCThreshold {
			violations++
		}
	}
	return TTCResult{
		Valid:      true,
		N:          st.N,
		Min:        st.Min,
		Avg:        st.Mean,
		Max:        st.Max,
		Violations: violations,
		TET:        c.exposure,
	}
}

// Merge combines two TTC results as if their samples were pooled: min
// of mins, max of maxs, sample-weighted average, summed violations and
// exposure. Used to aggregate per-scenario results into per-subject
// table rows.
func Merge(a, b TTCResult) TTCResult {
	switch {
	case !a.Valid:
		return b
	case !b.Valid:
		return a
	}
	out := TTCResult{
		Valid:      true,
		N:          a.N + b.N,
		Min:        math.Min(a.Min, b.Min),
		Max:        math.Max(a.Max, b.Max),
		Violations: a.Violations + b.Violations,
		TET:        a.TET + b.TET,
	}
	out.Avg = (a.Avg*float64(a.N) + b.Avg*float64(b.N)) / float64(out.N)
	return out
}

// HeadwayTime returns the time-headway gap/v for one instant, or +Inf
// at standstill.
func HeadwayTime(gap, v float64) float64 {
	if v <= 0 {
		return math.Inf(1)
	}
	return gap / v
}
