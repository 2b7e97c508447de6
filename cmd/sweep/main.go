// Command sweep runs the §VIII validity sweeps from the command line:
// single-axis delay and loss ladders for the simulator and the scale
// model vehicle, and the combined delay×loss grid the paper lists as
// future work, rendered as a drivability heat map.
//
// Usage:
//
//	sweep                          # both environments, paper magnitudes
//	sweep -env simulator -grid     # delay×loss heat map
//	sweep -subject T6 -seed 9      # different operator / realization
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/opsflags"
	"teledrive/internal/telemetry"
	"teledrive/internal/validity"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run executes the sweep: the report goes to stdout, what the ops flags
// print (progress line, telemetry banner, warnings) to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		envName = fs.String("env", "both", "environment: simulator, model, both")
		subject = fs.String("subject", "T5", "operator profile for the simulator")
		seed    = fs.Int64("seed", 2024, "sweep seed")
		grid    = fs.Bool("grid", false, "run the combined delay x loss grid (future-work extension)")
		workers = fs.Int("workers", 0, "parallel sweep-point workers (0 = all CPUs, 1 = sequential); results are identical for any value")
		ops     = opsflags.Register(fs, "sweep").
			WithProgress("repaint a live progress line (points done/total, elapsed, ETA) on stderr").
			WithStrict().
			WithStderr(stderr)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}

	var envs []validity.Env
	switch *envName {
	case "simulator":
		envs = []validity.Env{validity.Simulator(prof)}
	case "model":
		envs = []validity.Env{validity.ModelVehicle()}
	case "both":
		envs = []validity.Env{validity.Simulator(prof), validity.ModelVehicle()}
	default:
		return fmt.Errorf("unknown environment %q", *envName)
	}

	// One registry spans every environment in the sweep; per-env progress
	// counters are summed for the overall line.
	reg := telemetry.NewRegistry()
	if err := ops.Serve(reg); err != nil {
		return err
	}
	defer ops.Close()
	var planned, done []*telemetry.Counter
	for i := range envs {
		envs[i].Metrics = reg
		p, d := validity.PointCounters(reg, envs[i].Name)
		planned = append(planned, p)
		done = append(done, d)
	}
	sum := func(cs []*telemetry.Counter) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range cs {
				t += c.Value()
			}
			return t
		}
	}
	// The report is held back until every environment has run and the
	// progress line has ended, so a terminal showing both never gets a
	// heading appended to a half-painted progress line.
	stopProgress := ops.StartProgress("points", sum(planned), sum(done))
	var report bytes.Buffer
	failed := 0
	for _, env := range envs {
		n, err := 0, error(nil)
		if *grid {
			n, err = runGrid(&report, env, *seed, *workers)
		} else {
			n, err = runLadders(&report, env, *seed, *workers)
		}
		if err != nil {
			stopProgress()
			return err
		}
		failed += n
	}
	stopProgress()
	if _, err := report.WriteTo(stdout); err != nil {
		return err
	}
	return ops.CheckStrict(failed)
}

func runLadders(w io.Writer, env validity.Env, seed int64, workers int) (int, error) {
	delays := validity.PaperDelays()
	if env.Name == "model-vehicle" {
		delays = validity.ModelDelays()
	}
	points, err := validity.Sweep(env, delays, validity.PaperLosses(), seed, workers)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "== %s ==\n", env.Name)
	fmt.Fprintf(w, "%-12s %-11s %6s %6s %9s %6s %5s\n", "condition", "grade", "SRR", "speed", "lateral", "crash", "dep")
	failed := 0
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %-11s %6.1f %6.2f %9.3f %6d %5d\n",
			p.Label, p.Grade, p.SRR, p.MeanSpeed, p.MeanAbsLateral, p.Collisions, p.LaneDepartures)
		failed += p.FailedInjections
	}
	fmt.Fprintln(w)
	return failed, nil
}

// gradeGlyph maps a drivability grade to a heat-map cell.
func gradeGlyph(g validity.Drivability) string {
	switch g {
	case validity.DrivOK:
		return " . "
	case validity.DrivDegraded:
		return " o "
	case validity.DrivDifficult:
		return " X "
	case validity.DrivImpossible:
		return "###"
	default:
		return " ? "
	}
}

func runGrid(w io.Writer, env validity.Env, seed int64, workers int) (int, error) {
	delays := []time.Duration{0, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	losses := []float64{0, 0.02, 0.05, 0.10}
	if env.Name == "model-vehicle" {
		delays = []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	}
	grid, err := validity.GridSweep(env, delays, losses, seed, workers)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "== %s: drivability heat map (. ok, o degraded, X difficult, ### impossible) ==\n", env.Name)
	fmt.Fprintf(w, "%12s", "delay \\ loss")
	for _, l := range losses {
		fmt.Fprintf(w, "%7.0f%%", l*100)
	}
	fmt.Fprintln(w)
	for _, d := range delays {
		fmt.Fprintf(w, "%12v", d)
		for _, l := range losses {
			for _, cell := range grid {
				if cell.Delay == d && cell.Loss == l { //lint:allow floateq grid cells echo the exact values of this losses slice; never recomputed
					fmt.Fprintf(w, "%8s", gradeGlyph(cell.Point.Grade))
					break
				}
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	failed := 0
	for _, cell := range grid {
		failed += cell.Point.FailedInjections
	}
	return failed, nil
}
