// Parallel sweep execution. The §VIII sweeps follow the same
// plan/execute split as the campaign runner: each sweep enumerates its
// measurement points up front (every point carries an explicit seed),
// runs them on a bounded worker pool, and applies classification and
// the monotone-grade pass sequentially afterwards — so sweep results
// are bit-identical for any worker count.
package validity

import (
	"fmt"
	"runtime"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/pool"
	"teledrive/internal/telemetry"
)

// PointCounters binds (or re-opens — binding is idempotent) the sweep
// progress counters for one environment: points planned and points
// done. A progress display binds the same handles the pool increments.
func PointCounters(reg *telemetry.Registry, envName string) (planned, done *telemetry.Counter) {
	points := reg.CounterVec("teledrive_sweep_points_total",
		"Validity-sweep measurement points by lifecycle event (planned/done).", "env", "event")
	return points.With(envName, "planned"), points.With(envName, "done")
}

// pointJob is one planned sweep measurement.
type pointJob struct {
	rule  netem.Rule
	label string
	// desc is the error context ("baseline", "delay 100ms", ...).
	desc string
	seed int64
}

// runPoints executes the planned jobs on pool.Run (non-positive
// workers means GOMAXPROCS) and returns the points in job order. After
// the first failure no new point starts, and the lowest failing job's
// error is returned.
func runPoints(env Env, jobs []pointJob, workers int) ([]Point, error) {
	pts := make([]Point, len(jobs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Sweep progress instruments (pre-bound; nil handles when the env is
	// uninstrumented). The environment label keeps concurrent simulator
	// and model-vehicle sweeps distinguishable on one registry.
	var planned, done *telemetry.Counter
	if env.Metrics != nil {
		planned, done = PointCounters(env.Metrics, env.Name)
		planned.Add(uint64(len(jobs)))
	}

	failed, err := pool.Run(len(jobs), workers, func(_, i int) error {
		p, err := RunPoint(env, jobs[i].rule, jobs[i].label, jobs[i].seed)
		if err != nil {
			return err
		}
		pts[i] = p
		if done != nil {
			done.Inc()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("validity: %s %s: %w", env.Name, jobs[failed].desc, err)
	}
	return pts, nil
}

// Sweep runs the full §VIII sweep for one environment: the fault-free
// baseline, then each delay and loss magnitude. Results carry grades.
// All points (baseline included) are simulated on workers concurrent
// workers, then classified and monotone-adjusted sequentially, so
// results are bit-identical for every workers value. Grades within one
// fault family are monotone non-decreasing in magnitude: the sweep
// reports threshold claims ("above X ms the drive degrades"), so a
// higher magnitude is at least as bad as a lower one even when a
// single seeded run happens to grade milder.
func Sweep(env Env, delays []time.Duration, losses []float64, seed int64, workers int) ([]Point, error) {
	jobs := []pointJob{{rule: netem.Rule{}, label: "none", desc: "baseline", seed: seed}}
	for i, d := range delays {
		jobs = append(jobs, pointJob{
			rule: netem.Rule{Delay: d}, label: fmt.Sprintf("delay %v", d),
			desc: fmt.Sprintf("delay %v", d), seed: seed + int64(i) + 1,
		})
	}
	for i, l := range losses {
		jobs = append(jobs, pointJob{
			rule: netem.Rule{Loss: l}, label: fmt.Sprintf("loss %.0f%%", l*100),
			desc: fmt.Sprintf("loss %v", l), seed: seed + 100 + int64(i),
		})
	}
	pts, err := runPoints(env, jobs, workers)
	if err != nil {
		return nil, err
	}
	pts[0].Grade = DrivOK
	baseline := pts[0]
	// Grades within one fault family are monotone non-decreasing in
	// magnitude.
	grade := func(from, to int) {
		worst := DrivOK
		for k := from; k < to; k++ {
			pts[k].Grade = Classify(pts[k], baseline)
			if pts[k].Grade < worst {
				pts[k].Grade = worst
			}
			worst = pts[k].Grade
		}
	}
	grade(1, 1+len(delays))
	grade(1+len(delays), len(pts))
	return pts, nil
}

// GridSweep evaluates every combination of the given delays and losses
// — the paper's future-work item "evaluate more combinations of fault
// models". The zero-fault cell is the baseline for classification, and
// grades are monotone along each row and column (a combination is at
// least as bad as either of its components alone). Like Sweep,
// simulation runs on workers concurrent workers and grading is
// sequential.
func GridSweep(env Env, delays []time.Duration, losses []float64, seed int64, workers int) ([]GridPoint, error) {
	jobs := []pointJob{{rule: netem.Rule{}, label: "none", desc: "grid baseline", seed: seed}}
	type cellRef struct {
		di, li, job int
	}
	var refs []cellRef
	for di, d := range delays {
		for li, l := range losses {
			if d == 0 && l == 0 { //lint:allow floateq the baseline cell is the literal zero from the sweep spec, not a computed value
				refs = append(refs, cellRef{di, li, 0})
				continue
			}
			label := fmt.Sprintf("delay %v + loss %.0f%%", d, l*100)
			refs = append(refs, cellRef{di, li, len(jobs)})
			jobs = append(jobs, pointJob{
				rule: netem.Rule{Delay: d, Loss: l}, label: label, desc: label,
				seed: seed + int64(di*100+li) + 1,
			})
		}
	}
	pts, err := runPoints(env, jobs, workers)
	if err != nil {
		return nil, err
	}
	pts[0].Grade = DrivOK
	baseline := pts[0]

	grades := make(map[[2]int]Drivability)
	out := make([]GridPoint, 0, len(refs))
	for _, ref := range refs {
		p := pts[ref.job]
		if ref.job != 0 {
			p.Grade = Classify(p, baseline)
		}
		// Monotonicity against the left and upper neighbours.
		if ref.di > 0 {
			if g := grades[[2]int{ref.di - 1, ref.li}]; p.Grade < g {
				p.Grade = g
			}
		}
		if ref.li > 0 {
			if g := grades[[2]int{ref.di, ref.li - 1}]; p.Grade < g {
				p.Grade = g
			}
		}
		grades[[2]int{ref.di, ref.li}] = p.Grade
		out = append(out, GridPoint{Delay: delays[ref.di], Loss: losses[ref.li], Point: p})
	}
	return out, nil
}
