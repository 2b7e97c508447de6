// Command rdsim runs a single remote-driving test: one subject, one
// scenario, one fault condition (or a golden run), and prints the §V-G
// safety metrics.
//
// Usage:
//
//	rdsim [-subject T5] [-scenario follow|slalom|overtake|training]
//	      [-fault NFI|5ms|25ms|50ms|2%|5%] [-seed N] [-json FILE]
//	      [-telemetry-addr localhost:9090] [-telemetry-events FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/opsflags"
	"teledrive/internal/scenario"
	"teledrive/internal/telemetry"
	"teledrive/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rdsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdsim", flag.ContinueOnError)
	var (
		subject   = fs.String("subject", "T5", "subject profile (T1..T12)")
		scenName  = fs.String("scenario", "follow", "scenario: follow, slalom, overtake, training")
		fault     = fs.String("fault", "NFI", "fault condition at every POI: NFI, 5ms, 25ms, 50ms, 2%, 5%")
		seed      = fs.Int64("seed", 1, "run seed")
		jsonOut   = fs.String("json", "", "write the run log as JSON to this file")
		ops       = opsflags.Register(fs, "rdsim")
		eventsOut = fs.String("telemetry-events", "", "append the run's sparse structured events (phases, faults, collisions) as JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}
	var scn *scenario.Scenario
	switch *scenName {
	case "follow":
		scn = scenario.FollowVehicle()
	case "slalom":
		scn = scenario.LaneChangeSlalom()
	case "overtake":
		scn = scenario.Overtake()
	case "training":
		scn = scenario.Training()
	default:
		return fmt.Errorf("unknown scenario %q", *scenName)
	}
	cond, ok := faultinject.ConditionByLabel(*fault)
	if !ok {
		return fmt.Errorf("unknown fault %q", *fault)
	}
	var faults []faultinject.Condition
	if cond != faultinject.CondNFI {
		faults = make([]faultinject.Condition, len(scn.POIs))
		for i := range faults {
			faults[i] = cond
		}
	}

	spec := core.RunSpec{Scenario: scn, Profile: prof, Seed: *seed, Faults: faults}
	if ops.Serving() || *eventsOut != "" {
		spec.Metrics = telemetry.NewRegistry()
	}
	if err := ops.Serve(spec.Metrics); err != nil {
		return err
	}
	defer ops.Close()
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		spec.Events = telemetry.NewEventSink(f)
	}

	res, err := core.RunOne(spec)
	if err != nil {
		return err
	}
	if spec.Events != nil {
		if err := spec.Events.Err(); err != nil {
			return fmt.Errorf("telemetry events: %w", err)
		}
		fmt.Printf("wrote %d telemetry events to %s\n", spec.Events.Count(), *eventsOut)
	}

	out := res.Outcome
	a := res.Analysis
	fmt.Printf("subject %s, scenario %s, fault %s, seed %d\n", prof.Name, scn.Name, cond, *seed)
	fmt.Printf("  completed: %v (final station %.0f m, %v simulated)\n", out.Completed, out.FinalStation, out.Log.Duration().Truncate(1e8))
	fmt.Printf("  faults injected: %d\n", out.Injected)
	if out.FailedInjections > 0 {
		fmt.Printf("  WARNING: %d fault injection(s) failed — treat this cell as an invalid test execution\n", out.FailedInjections)
	}
	fmt.Printf("  collisions: %d, lane invasions: %d\n", out.EgoCollisions, a.LaneInvasions)
	fmt.Printf("  SRR (whole run): %.1f rev/min\n", a.SRRWholeRun)
	if a.TaskTimeOK {
		fmt.Printf("  task-segment time: %.1f s\n", a.TaskTime.Seconds())
	}
	fmt.Printf("  mean speed: %.1f m/s, mean headway: %.1f s\n", a.SpeedStats.Mean, a.MeanHeadway)

	labels := make([]string, 0, len(a.TTCByCondition))
	for label := range a.TTCByCondition {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		t := a.TTCByCondition[label]
		fmt.Printf("  TTC[%s]: min %.2f avg %.2f max %.2f (n=%d, %d violations < 6 s)\n",
			label, t.Min, t.Avg, t.Max, t.N, t.Violations)
	}
	for _, label := range labels {
		if srr, ok := a.SRRByCondition[label]; ok {
			fmt.Printf("  SRR[%s]: %.1f rev/min\n", label, srr)
		}
	}
	fmt.Printf("  frames: sent %d, dropped %d; controls applied %d\n",
		out.ServerStats.FramesSent, out.ServerStats.FramesDropped, out.ServerStats.ControlsApplied)
	fmt.Printf("  uplink: controls sent %d, dropped %d\n",
		out.ClientStats.ControlsSent, out.ClientStats.ControlsDropped)

	if *jsonOut != "" {
		if err := trace.SaveJSONFile(*jsonOut, out.Log); err != nil {
			return err
		}
		fmt.Printf("wrote run log to %s\n", *jsonOut)
	}
	return nil
}
