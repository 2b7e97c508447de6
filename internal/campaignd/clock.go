package campaignd

import "time"

// campaignd is an *operations* service, not simulation code: heartbeat
// intervals and connection timeouts are real-time concerns, while every
// simulated trajectory remains a pure function of its cell seed. The
// repo-wide wallclock lint rule still applies, so all wall-clock access
// is funneled through this file — the rest of the package stays
// mechanically clean, and the suppression reasons live in exactly one
// place.

// nowWall reads the coordinator wall clock for connection read
// deadlines and elapsed accounting.
//
//lint:allow wallclock campaignd is an ops service: connection read deadlines and the campaign's elapsed time run on real time; cell results remain pure functions of their seeds
func nowWall() time.Time { return time.Now() }

// newWallTicker drives the worker's heartbeat loop.
//
//lint:allow wallclock campaignd is an ops service: the heartbeat cadence is real-time, not simulated time
func newWallTicker(d time.Duration) *time.Ticker { return time.NewTicker(d) }
