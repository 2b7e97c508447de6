// Command adversary runs the criticality-guided adversarial scenario
// search: generations of perturbed fault cells (netem parameters, fault
// onset/window shifts around the POIs, lead-vehicle negligence),
// importance-sampled toward the low-TTC/collision region and scored on
// the run analysis, with Horvitz–Thompson estimates of the uniform-grid
// collision rate in the final report.
//
// The search trajectory is a pure function of -seed: the journal and
// the report are byte-identical for any -workers value, and a run
// interrupted mid-search resumes exactly from its -journal file.
//
// Usage:
//
//	adversary [-seed N] [-generations N] [-cells N] [-epsilon F]
//	          [-elites N] [-subject T3] [-scenario NAME] [-workers N]
//	          [-journal FILE] [-out FILE] [-strict]
//	          [-telemetry-addr localhost:9090] [-progress=false]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"teledrive/internal/driver"
	"teledrive/internal/opsflags"
	"teledrive/internal/search"
	"teledrive/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("adversary", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 4, "search seed; same seed + options = byte-identical journal and report for any -workers")
		generations = fs.Int("generations", 8, "search generations")
		cells       = fs.Int("cells", 16, "cells proposed per generation")
		epsilon     = fs.Float64("epsilon", 0.2, "uniform share of the proposal mixture in (0,1] (1 = pure uniform baseline)")
		elites      = fs.Int("elites", 8, "elite pool size anchoring the proposal kernels")
		subject     = fs.String("subject", "T3", "driver profile under test (see campaign Table II)")
		scenarioSel = fs.String("scenario", "", "restrict the scenario axis to one library scenario (empty = all three test scenarios)")
		workers     = fs.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential); results are identical for any value")
		journalPath = fs.String("journal", "", "append every evaluated cell to this JSONL file and resume from it")
		out         = fs.String("out", "", "write the report to this file instead of stdout")
		ops         = opsflags.Register(fs, "adversary").
				WithProgress("print a per-generation progress line on stderr").
				WithStrict()
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}
	space := search.DefaultSpace()
	if *scenarioSel != "" {
		found := false
		for _, name := range space.Scenarios {
			if name == *scenarioSel {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("scenario %q not on the search scenario axis %v", *scenarioSel, space.Scenarios)
		}
		space.Scenarios = []string{*scenarioSel}
		space.Axes[search.AxScenario].Values = []float64{0}
	}

	reg := telemetry.NewRegistry()
	if err := ops.Serve(reg); err != nil {
		return err
	}
	defer ops.Close()

	opts := search.Options{
		Space:       space,
		Seed:        *seed,
		Generations: *generations,
		CellsPerGen: *cells,
		Epsilon:     *epsilon,
		Elites:      *elites,
		Workers:     *workers,
		Label:       "sim/" + prof.Name,
		Metrics:     reg,
	}
	if ops.Progress() {
		opts.OnGeneration = func(g search.GenStats) {
			fmt.Fprintf(os.Stderr, "adversary: gen %d/%d: %d evaluated, %d cached, %d accepted, best %.3f (best so far %.3f)\n",
				g.Gen+1, *generations, g.Evaluated, g.CachedCells, g.Accepted, g.Best, g.BestSoFar)
		}
	}
	if *journalPath != "" {
		j, err := search.OpenJournal(*journalPath, opts.Digest())
		if err != nil {
			return err
		}
		defer j.Close()
		if j.Len() > 0 {
			fmt.Fprintf(os.Stderr, "adversary: resuming from %s (%d cells journaled)\n", *journalPath, j.Len())
		}
		opts.Journal = j
	}

	ev := search.NewSimEvaluator(space, prof, reg)
	rep, err := search.Run(opts, ev)
	if err != nil {
		return err
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := search.WriteReport(dst, rep); err != nil {
		return err
	}
	failed := 0
	for _, c := range rep.Cells {
		failed += c.Signals.FailedInjections
	}
	return ops.CheckStrict(failed)
}
