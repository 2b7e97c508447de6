// Command campaignd is the distributed-campaign coordinator: it serves
// the planned cell list over TCP to `campaign -connect` workers,
// journals completed cells for crash recovery, and — once every cell
// has a result — prints the exact report a single-process
// `campaign -workers N` run would print.
//
// A two-worker local run:
//
//	campaignd -listen localhost:9433 -seed 4 -journal /tmp/c.jsonl &
//	campaign -connect localhost:9433 -worker-id w1 &
//	campaign -connect localhost:9433 -worker-id w2 &
//
// Kill the coordinator mid-campaign and start it again with the same
// flags: the journal replays completed cells and only the remainder is
// re-leased. A worker that sends nothing (no result, no heartbeat) for
// -worker-timeout is dropped and its cells re-queued; workers heartbeat
// at a twelfth of that timeout, which the coordinator sends them. A
// cell that fails on a worker fails the campaign, as it would in
// process. Tables are bit-identical in every case.
//
// Usage:
//
//	campaignd -listen HOST:PORT [-seed N] [-plan paper|random]
//	          [-training] [-no-exclusions] [-subjects T1,T2,...]
//	          [-scenarios test] [-journal FILE] [-max-retries 5]
//	          [-worker-timeout 60s] [-strict]
//	          [-fig4-subject auto] [-fig4-scenario 1]
//	          [-telemetry-addr localhost:9090] [-progress=false]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"teledrive/internal/campaignd"
	"teledrive/internal/opsflags"
	"teledrive/internal/report"
	"teledrive/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "localhost:9433", "TCP address to serve workers on")
		seed       = fs.Int64("seed", 4, "campaign seed (fault placement)")
		plan       = fs.String("plan", "paper", "fault plan: paper (Table II counts) or random")
		training   = fs.Bool("training", false, "include the training drive (slower)")
		noExclude  = fs.Bool("no-exclusions", false, "keep T7 and skip the paper's missing-data masks")
		subjects   = fs.String("subjects", "", "comma-separated subject names (empty = full T1–T12 group)")
		scenarios  = fs.String("scenarios", "", fmt.Sprintf("registered scenario set (empty = %q; known: %s)", campaignd.DefaultScenarioSet, strings.Join(campaignd.RegisteredScenarioSets(), ", ")))
		journal    = fs.String("journal", "", "JSONL checkpoint file; a restarted coordinator resumes from it instead of re-running finished cells")
		maxRetries = fs.Int("max-retries", campaignd.DefaultMaxRetries, "abort the campaign once one cell has been re-queued (its worker lost) more often than this")
		workerTO   = fs.Duration("worker-timeout", campaignd.DefaultWorkerTimeout, "disconnect a worker silent this long and re-queue its cells; workers heartbeat at a twelfth of it")
		fig4Sub    = fs.String("fig4-subject", "auto", "subject for the Fig 4 profile (auto = largest task-time inflation)")
		fig4Scn    = fs.Int("fig4-scenario", 1, "scenario index for Fig 4 (0=follow, 1=slalom, 2=overtake)")
		ops        = opsflags.Register(fs, "campaignd").
				WithProgress("repaint a live progress line (cells done/total, elapsed, ETA) on stderr").
				WithStrict()
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := campaignd.Spec{
		Seed:                 *seed,
		Plan:                 *plan,
		IncludeTraining:      *training,
		ApplyPaperExclusions: !*noExclude,
		ScenarioSet:          *scenarios,
	}
	if *subjects != "" {
		for _, name := range strings.Split(*subjects, ",") {
			if name = strings.TrimSpace(name); name != "" {
				spec.Subjects = append(spec.Subjects, name)
			}
		}
	}

	reg := telemetry.NewRegistry()
	if err := ops.Serve(reg); err != nil {
		return err
	}
	defer ops.Close()

	coord := &campaignd.Coordinator{
		Spec:          spec,
		JournalPath:   *journal,
		MaxRetries:    *maxRetries,
		WorkerTimeout: *workerTO,
		Registry:      reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaignd: serving workers on %s (connect with: campaign -connect %s)\n", ln.Addr(), ln.Addr())

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		close(stop)
	}()

	stopProgress := func() {}
	if ops.Progress() {
		cells := reg.CounterVec("campaignd_cells_total",
			"Coordinator cells by lifecycle event (planned/restored/done/requeued/duplicate/errored).", "event")
		planned, restored, done := cells.With("planned"), cells.With("restored"), cells.With("done")
		stopProgress = ops.StartProgress("cells",
			planned.Value,
			func() uint64 { return restored.Value() + done.Value() })
	}
	res, err := coord.Run(stop, ln)
	stopProgress()
	if err != nil {
		return err
	}
	fmt.Printf("completed %d subjects in %v (wall clock)\n\n", len(res.Subjects), res.Elapsed.Truncate(time.Duration(1e7)))

	report.WriteCampaignReport(os.Stdout, res, *fig4Sub, *fig4Scn)

	return ops.CheckStrict(res.TotalFailedInjections())
}
