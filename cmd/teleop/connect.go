package main

import (
	"fmt"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/netem"
	"teledrive/internal/scenario"
	"teledrive/internal/simclock"
)

type hubSessionParams struct {
	addr     string
	scenario string
	session  string
	seed     int64
	delta    bool
	duration time.Duration
	delay    time.Duration
	drop     float64
	profile  driver.Profile
}

// connectHub joins a session on the hub at p.addr, in-process or a
// teleopd, and drives it with the driver model. The hub hosts the
// world; this side only perceives and steers.
//
//lint:allow wallclock remote station: the hub paces simulated time to real time, so the station lives on the wall clock
func connectHub(p hubSessionParams) error {
	// The driver model needs the scenario's task definition; worlds on
	// the hub and a task here both come from the same library entry.
	scn, ok := scenario.ByName(p.scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q", p.scenario)
	}
	built, err := scn.Build()
	if err != nil {
		return err
	}

	st, err := hub.Dial(p.addr)
	if err != nil {
		return err
	}
	defer st.Close()

	req := hub.JoinRequest{
		Scenario:   p.scenario,
		Name:       p.session,
		Seed:       p.seed,
		Delta:      p.delta,
		DurationNS: p.duration.Nanoseconds(),
	}
	if p.delay > 0 || p.drop > 0 {
		req.Rule = &netem.Rule{Delay: p.delay, Loss: p.drop}
	}
	ss, err := st.Join(req)
	if err != nil {
		return err
	}
	fmt.Printf("joined hub session %d (%s) on %s\n", ss.ID, ss.Scenario, p.addr)

	// A StationSession IS a driver.Perception: Frame and FrameAge read
	// the latest reconstructed world view.
	clk := simclock.New()
	drv, err := driver.New(clk, ss, driver.DefaultConfig(p.profile, built.Task))
	if err != nil {
		return err
	}

	start := time.Now()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	status := time.NewTicker(5 * time.Second)
	defer status.Stop()
	for {
		select {
		case <-tick.C:
			if end, ok := ss.Wait(0); ok {
				return report(ss, end)
			}
			now := time.Since(start)
			clk.AdvanceTo(now)
			if _, ok := ss.Frame(); !ok {
				continue // nothing displayed yet
			}
			if err := ss.SendControl(drv.Tick(now)); err != nil {
				return err
			}
		case <-status.C:
			if view, ok := ss.Frame(); ok {
				stats := ss.Stats()
				fmt.Printf("station: frame %d, ego speed %.1f m/s, deltas %d, resyncs %d, degradation %.2f\n",
					view.Frame, view.Ego.Speed, stats.DeltasApplied, stats.DeltaResyncs, drv.Degradation())
			}
		}
	}
}

// report prints the terminal session state from both perspectives.
func report(ss *hub.StationSession, end *hub.SessionEnd) error {
	stats := ss.Stats()
	fmt.Printf("session %d ended (%s) at sim t=%v\n", end.SessionID, end.Reason,
		time.Duration(end.SimTimeNS))
	fmt.Printf("  hub:     frames %d (dropped %d, deltas %d), events %d (dropped %d), controls %d\n",
		end.FramesSent, end.FramesDropped, end.DeltasSent,
		end.EventsSent, end.EventsDropped, end.Controls)
	fmt.Printf("  station: displayed %d (stale %d, deltas %d, resyncs %d), controls sent %d\n",
		stats.FramesReceived, stats.FramesStale, stats.DeltasApplied,
		stats.DeltaResyncs, stats.ControlsSent)
	if end.Reason != "completed" {
		return fmt.Errorf("session ended %q", end.Reason)
	}
	return nil
}
