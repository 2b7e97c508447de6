package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
	g.Set(-9)
	if got := g.Value(); got != -9 {
		t.Fatalf("Value() = %d, want -9", got)
	}
}

// TestHistogramBucketBoundaries pins the `le` semantics: a bound is an
// INCLUSIVE upper edge, so an observation exactly on a bound lands in
// that bound's bucket, and anything beyond the last bound lands in
// +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2.5, 5}
	cases := []struct {
		v      float64
		bucket int // index into counts; len(bounds) = +Inf
	}{
		{0, 0},
		{0.999, 0},
		{1, 0}, // exactly on the first bound: inclusive
		{1.001, 1},
		{2.5, 1}, // exactly on a middle bound
		{2.6, 2},
		{5, 2}, // exactly on the last bound
		{5.001, 3},
		{1e18, 3},
		{-3, 0}, // below every bound: first bucket
	}
	for _, tc := range cases {
		h := newHistogram(bounds)
		h.Observe(tc.v)
		for i := 0; i <= len(bounds); i++ {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.BucketCount(i); got != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, got, want)
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): Count = %d, want 1", tc.v, h.Count())
		}
		if h.Sum() != tc.v {
			t.Errorf("Observe(%v): Sum = %v", tc.v, h.Sum())
		}
	}
}

func TestHistogramSumAndDuration(t *testing.T) {
	h := newHistogram(DefLatencyBuckets())
	h.ObserveDuration(25 * time.Millisecond)
	h.ObserveDuration(50 * time.Millisecond)
	if got, want := h.Sum(), 0.075; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
}

func TestHistogramBoundsSortedByRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{5, 1, 2.5})
	want := []float64{1, 2.5, 5}
	got := h.Bounds()
	if len(got) != len(want) {
		t.Fatalf("Bounds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bounds = %v, want %v", got, want)
		}
	}
}

// TestRegistryBindingIdentity pins the aggregation contract: binding
// the same name and label values twice — from different call sites, as
// concurrent campaign cells do — returns the SAME handle.
func TestRegistryBindingIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help is ignored")
	if a != b {
		t.Fatalf("unlabeled rebinding returned a different handle")
	}
	v1 := r.CounterVec("y_total", "", "link")
	v2 := r.CounterVec("y_total", "", "link")
	if v1.With("up") != v2.With("up") {
		t.Fatalf("vec rebinding returned a different handle")
	}
	if v1.With("up") == v1.With("down") {
		t.Fatalf("distinct label values shared a handle")
	}
	g1, g2 := r.Gauge("g", ""), r.Gauge("g", "")
	if g1 != g2 {
		t.Fatalf("gauge rebinding returned a different handle")
	}
	h1 := r.Histogram("h", "", []float64{1})
	h2 := r.Histogram("h", "", []float64{1})
	if h1 != h2 {
		t.Fatalf("histogram rebinding returned a different handle")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("c", "")
	mustPanic("counter→gauge", func() { r.Gauge("c", "") })
	mustPanic("counter→histogram", func() { r.Histogram("c", "", []float64{1}) })
	r.CounterVec("v", "", "a", "b")
	mustPanic("label count", func() { r.CounterVec("v", "", "a") })
	mustPanic("label names", func() { r.CounterVec("v", "", "a", "c") })
	v := r.CounterVec("w", "", "a")
	mustPanic("value arity", func() { v.With("x", "y") })
}

// TestSanitizedNamesCollapse: binding via a dirty name reaches the same
// family as the sanitized name — sanitization happens at registration,
// not exposition.
func TestSanitizedNamesCollapse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("teledrive total", "")
	b := r.Counter("teledrive_total", "")
	if a != b {
		t.Fatalf("sanitized alias bound a different handle")
	}
}
