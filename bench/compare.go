package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare applies the BENCHMARK.json bounds to two sets of runs, one
// row per (workload, end-to-end metric). Each file holds what bench
// prints, any number of runs of any workloads appended together. A row
// is a regression when NEW's median is worse than OLD's by more than the
// bound; when either side's run-to-run spread (interquartile range over
// median) exceeds the bound the row is unresolved instead, unless every
// NEW run beats every OLD run.
func runCompare(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	raw, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-20s %-18s %5s %12s %7s %12s %7s %8s  %s\n",
		"workload", "metric", "bound", "old median", "spread", "new median", "spread", "change", "verdict")
	for _, w := range workloads {
		o, n := oldRuns[w.name], newRuns[w.name]
		if len(o) == 0 && len(n) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := runValues(o, m.Name), runValues(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(stdout, "%-20s %-18s %5.2f %12s %7s %12s %7s %8s  missing\n", w.name, m.Name, m.Bound, "-", "", "-", "", "")
				code = 1
				continue
			}
			r := judge(ov, nv, m.Better == "higher", m.Bound)
			fmt.Fprintf(stdout, "%-20s %-18s %5.2f %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%%  %s\n",
				w.name, m.Name, m.Bound, r.oldMedian, 100*r.oldSpread, r.newMedian, 100*r.newSpread, 100*r.change, r.verdict)
			if r.verdict == "REGRESSION" {
				code = 1
			}
		}
	}
	return code
}

type verdict struct {
	oldMedian, newMedian, oldSpread, newSpread, change float64
	verdict                                            string
}

// judge compares one row. change is NEW relative to OLD, signed so that
// positive is worse.
func judge(old, cur []float64, higherBetter bool, bound float64) verdict {
	v := verdict{oldMedian: median(old), newMedian: median(cur)}
	v.oldSpread, v.newSpread = spread(old), spread(cur)
	v.change = (v.newMedian - v.oldMedian) / v.oldMedian
	if higherBetter {
		v.change = -v.change
	}
	allBetter := true
	for _, a := range cur {
		for _, b := range old {
			if (higherBetter && a <= b) || (!higherBetter && a >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case max(v.oldSpread, v.newSpread) > bound && allBetter:
		v.verdict = "better (every new run beats every old run)"
	case max(v.oldSpread, v.newSpread) > bound:
		v.verdict = "unresolved (spread exceeds bound)"
	case v.change > bound:
		v.verdict = "REGRESSION"
	default:
		v.verdict = "ok"
	}
	return v
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, m, q3 := quartiles(sortedCopy(xs))
	return (q3 - q1) / m
}

// runValues is one metric's samples on one side: each run's value, or,
// from a single run, the repetitions behind its value.
func runValues(runs []detail, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if d, ok := r.Metrics[name]; ok {
			xs = append(xs, d.Value)
		}
	}
	if len(xs) == 1 {
		if d := runs[0].Metrics[name]; len(d.Samples) > 1 {
			return slices.Clone(d.Samples)
		}
	}
	return xs
}

// loadRuns reads the detail lines of a result file, by workload.
func loadRuns(path string) (map[string][]detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]detail)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var d detail
		if json.Unmarshal(sc.Bytes(), &d) != nil || d.Workload == "" || d.Trace != 0 {
			continue
		}
		runs[d.Workload] = append(runs[d.Workload], d)
	}
	return runs, sc.Err()
}
