package validity

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSweepWorkersDeterminism: a sweep must produce bit-identical
// points (values and grades) for any worker count — every point
// carries an explicit seed, and grading is a sequential post-pass.
func TestSweepWorkersDeterminism(t *testing.T) {
	env := ModelVehicle()
	delays := []time.Duration{20 * time.Millisecond, 80 * time.Millisecond}
	losses := []float64{0.05}
	ref, err := Sweep(env, delays, losses, 55, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 0} {
		pts, err := Sweep(env, delays, losses, 55, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Fatalf("workers=%d: sweep points differ from sequential", w)
		}
	}
}

// TestGridSweepWorkersDeterminism mirrors the ladder test for the
// delay×loss grid, including the baseline-reusing zero cell.
func TestGridSweepWorkersDeterminism(t *testing.T) {
	env := ModelVehicle()
	delays := []time.Duration{0, 40 * time.Millisecond}
	losses := []float64{0, 0.05}
	ref, err := GridSweep(env, delays, losses, 321, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(delays)*len(losses) {
		t.Fatalf("grid cells = %d", len(ref))
	}
	par, err := GridSweep(env, delays, losses, 321, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, ref) {
		t.Fatal("parallel grid differs from sequential")
	}
}

// TestRunPointsErrorPropagation drives the pool's failure path
// directly: an impossible netem rule is rejected by RunPoint and must
// surface with the job's description.
func TestRunPointsErrorPropagation(t *testing.T) {
	env := ModelVehicle()
	jobs := []pointJob{
		{label: "none", desc: "baseline", seed: 3},
		{label: "bogus", desc: "loss 12", seed: 4},
	}
	// Loss outside [0,1] makes netem's Apply fail inside the run.
	jobs[1].rule.Loss = 12
	for _, w := range []int{1, 4} {
		_, err := runPoints(env, jobs, w)
		if err == nil {
			t.Fatalf("workers=%d: invalid rule accepted", w)
		}
		if !strings.Contains(err.Error(), "loss 12") {
			t.Fatalf("workers=%d: unexpected error: %v", w, err)
		}
	}
}
