// Command campaign runs the full human-in-the-loop test campaign of the
// paper — every subject through training (optional), a golden run, and a
// faulty run over the three scenarios — and prints the result tables
// (Tables II–IV), the collision analysis, the questionnaire summary, and
// the Fig-4 steering-profile comparison.
//
// With -connect it instead becomes a campaignd *worker*: it dials the
// coordinator, rebuilds the plan locally from the received spec, runs
// leased cells, and streams outcomes back. The coordinator prints the
// tables in that mode.
//
// Usage:
//
//	campaign [-seed N] [-plan paper|random] [-training] [-spec] [-strict]
//	         [-fig4-subject T6] [-fig4-scenario 1] [-logs DIR] [-csv DIR]
//	         [-telemetry-addr localhost:9090] [-progress=false]
//	campaign -connect HOST:PORT [-worker-id NAME] [-workers N]
//	         [-telemetry-addr localhost:9091]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"teledrive/internal/campaign"
	"teledrive/internal/campaignd"
	"teledrive/internal/opsflags"
	"teledrive/internal/rds"
	"teledrive/internal/report"
	"teledrive/internal/telemetry"
	"teledrive/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 4, "campaign seed (fault placement)")
		plan      = fs.String("plan", "paper", "fault plan: paper (Table II counts) or random")
		training  = fs.Bool("training", false, "include the training drive (slower)")
		spec      = fs.Bool("spec", false, "print Table I (station spec) and exit")
		fig4Sub   = fs.String("fig4-subject", "auto", "subject for the Fig 4 profile (auto = largest task-time inflation)")
		fig4Scn   = fs.Int("fig4-scenario", 1, "scenario index for Fig 4 (0=follow, 1=slalom, 2=overtake)")
		logsDir   = fs.String("logs", "", "write per-run JSON logs to this directory")
		htmlOut   = fs.String("html", "", "write a self-contained HTML dashboard to this file")
		csvDir    = fs.String("csv", "", "export per-run CSV logs to this directory")
		noExclude = fs.Bool("no-exclusions", false, "keep T7 and skip the paper's missing-data masks")
		workers   = fs.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential); results are identical for any value")
		connect   = fs.String("connect", "", "run as a campaignd worker: dial the coordinator at this address instead of running a local campaign")
		workerID  = fs.String("worker-id", "", "worker name in coordinator telemetry and journal (with -connect); default worker-<pid>")
		ops       = opsflags.Register(fs, "campaign").
				WithProgress("repaint a live progress line (cells done/total, elapsed, ETA) on stderr").
				WithStrict()
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *spec {
		report.WriteTableI(os.Stdout, rds.PaperStation())
		return nil
	}

	// One registry serves the whole campaign (or worker): cells
	// aggregate into it, the ops server exposes it, and the progress
	// line reads it.
	reg := telemetry.NewRegistry()
	if err := ops.Serve(reg); err != nil {
		return err
	}
	defer ops.Close()

	if *connect != "" {
		return runWorker(reg, *connect, *workerID, *workers)
	}

	mode := campaign.PlanPaper
	switch *plan {
	case "paper":
	case "random":
		mode = campaign.PlanRandom
	default:
		return fmt.Errorf("unknown plan %q", *plan)
	}

	fmt.Printf("running campaign: seed=%d plan=%s training=%v workers=%d ...\n", *seed, *plan, *training, *workers)
	p, err := campaign.BuildPlan(campaign.Config{
		Seed:                 *seed,
		Plan:                 mode,
		IncludeTraining:      *training,
		ApplyPaperExclusions: !*noExclude,
		Workers:              *workers,
		Metrics:              reg,
	})
	if err != nil {
		return err
	}
	exportLogs(p, *logsDir, *csvDir)
	ins := campaign.NewInstruments(reg)
	stopProgress := ops.StartProgress("cells", ins.CellsPlanned.Value, ins.Done)
	res, err := p.Execute()
	stopProgress()
	if err != nil {
		return err
	}
	fmt.Printf("completed %d subjects in %v (wall clock)\n\n", len(res.Subjects), res.Elapsed.Truncate(1e7))

	report.WriteCampaignReport(os.Stdout, res, *fig4Sub, *fig4Scn)

	if *logsDir != "" {
		fmt.Printf("wrote JSON logs to %s\n", *logsDir)
	}
	if *csvDir != "" {
		fmt.Printf("wrote CSV logs to %s\n", *csvDir)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := report.WriteCampaignHTML(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote HTML dashboard to %s\n", *htmlOut)
	}
	return ops.CheckStrict(res.TotalFailedInjections())
}

// runWorker is the -connect mode: one campaignd worker process.
func runWorker(reg *telemetry.Registry, addr, id string, capacity int) error {
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	w := &campaignd.Worker{
		ID:       id,
		Capacity: capacity,
		Registry: reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	return w.Run(ctx, addr)
}

// exportLogs gives every golden and faulty cell of the plan a log sink
// that writes the drive's full run log — as JSON under logsDir and as
// CSV under csvDir, either of which may be empty — while the log is
// still valid: a campaign result keeps no per-tick series to export
// afterwards. A write error fails the cell, and so the campaign.
func exportLogs(p *campaign.Plan, logsDir, csvDir string) {
	if logsDir == "" && csvDir == "" {
		return
	}
	for i := range p.Cells {
		c := &p.Cells[i]
		if c.Kind == campaign.CellTraining {
			continue
		}
		name := fmt.Sprintf("%s_%s_%s", p.Subjects[c.Subject].Profile.Name, c.Spec.Scenario.Name, c.Kind)
		c.Spec.LogSink = func(log *trace.RunLog) error {
			if logsDir != "" {
				if err := trace.SaveJSONFile(filepath.Join(logsDir, name+".json"), log); err != nil {
					return err
				}
			}
			if csvDir != "" {
				return trace.ExportCSV(filepath.Join(csvDir, name), log)
			}
			return nil
		}
	}
}
