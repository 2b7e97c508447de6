package main

import (
	"math"
	"slices"
	"time"
)

// dist summarizes one metric's samples: the reported value plus the
// spread behind it.
type dist struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// summarize describes samples; the metric reports their median unless
// the caller sets another value.
func summarize(samples []float64, unit string) dist {
	d := dist{Unit: unit, N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return d
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Q1, d.Median, d.Q3 = quartiles(s)
	d.Value = d.Median
	return d
}

// quartiles of sorted data by the exclusive method — what Python's
// statistics.quantiles(data, n=4) returns, so spreads printed here match
// the ones Python computes from the same values.
func quartiles(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of unsorted samples (0 for none).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	_, m, _ := quartiles(sortedCopy(samples))
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile of sorted samples with linear interpolation between the
// closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// hist is a log-bucketed duration histogram (8 buckets per octave, 1 ns
// to ~1 min): fixed size, allocation-free to update, so a per-tick
// observer can feed it without touching the drive's allocation count.
type hist struct {
	N       uint64         `json:"n"`
	Buckets [36 * 8]uint64 `json:"buckets"`
}

func (h *hist) add(d time.Duration) {
	h.N++
	h.Buckets[bucketOf(d)]++
}

func bucketOf(d time.Duration) int {
	if d < 1 {
		return 0
	}
	b := int(math.Log2(float64(d)) * 8)
	return min(b, len(hist{}.Buckets)-1)
}

func (h *hist) merge(o *hist) {
	h.N += o.N
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// quantile returns the geometric midpoint of the bucket holding the
// p-th percentile (within ±4.4% of the true value).
func (h *hist) quantile(p float64) time.Duration {
	if h.N == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.N)))
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank && c > 0 {
			return time.Duration(math.Exp2((float64(i) + 0.5) / 8))
		}
	}
	return 0
}
