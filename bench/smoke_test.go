package main

import (
	"encoding/json"
	"math"
	"os"
	"syscall"
	"testing"
	"time"
)

// toySizes runs every workload through the same code paths at a size
// that finishes in a few seconds each, yet keeps the CPU profiler (100
// samples/s) busy enough to attribute.
var toySizes = sizes{
	subjects:    1,
	generations: 2, cellsPerGen: 2,
	fleet: 8, fleetSim: 10 * time.Second,
	served: 24, servedSim: time.Second,
}

// catalog is BENCHMARK.json's metric list.
type catalog struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadCatalog(t *testing.T) catalog {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalog
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func toyRun(t *testing.T, w *workload, traced bool, expect string) *childReport {
	t.Helper()
	return runChild(w, w.seed, childConfig{traced: traced, size: toySizes, expect: expect})
}

func rssMB(t *testing.T) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return float64(ru.Maxrss) / 1024
}

// TestWorkloadsSmoke runs each workload untraced and traced at toy size
// and checks that the run is correct (the traced run included, which
// requires each traced repetition to reproduce its untraced digest),
// that every metric BENCHMARK.json names is printed with its unit (and
// nothing else), and that the per-layer CPU shares add up to the
// profiled total.
func TestWorkloadsSmoke(t *testing.T) {
	cat := loadCatalog(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u := toyRun(t, w, false, "")
			e2e, _ := endToEnd(w, u, []float64{rssMB(t)})
			res, _ := finish(detail{Metrics: e2e}, u)
			if !res.Correct || res.Failed > 0 {
				t.Fatalf("untraced run not correct: %+v, problems %v", res, u.Problems)
			}
			checkMetrics(t, res.Metrics, cat.EndToEnd)

			tr := toyRun(t, w, true, "")
			layer, _ := perLayer(tr)
			res, _ = finish(detail{Metrics: layer}, tr)
			if !res.Correct {
				t.Fatalf("traced run not correct: problems %v", tr.Problems)
			}
			checkMetrics(t, res.Metrics, cat.PerLayer)
			sum := 0.0
			for _, l := range layers {
				sum += res.Metrics[l+".cpu_share"].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu_share sums to %v, want 1±0.01", sum)
			}
		})
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
}

// TestCorruptDigestFails pins a wrong digest and requires the run to
// fail: the repetition counts as failed and the result is not correct.
func TestCorruptDigestFails(t *testing.T) {
	w, _ := workloadByName("hub-fleet")
	ch := toyRun(t, w, false, "0000")
	res, _ := finish(detail{}, ch)
	if res.Correct || res.Failed != res.Attempted || len(ch.Problems) == 0 {
		t.Fatalf("corrupt digest accepted: %+v, problems %v", res, ch.Problems)
	}
}
