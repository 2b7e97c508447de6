package hub

import (
	"teledrive/internal/telemetry"
)

// Instruments is the hub's own telemetry: session lifecycle and
// protocol health. Per-session bridge counters bind separately
// (bridge.NewServerInstrumentsSession) when sessions are served over
// the wire.
type Instruments struct {
	SessionsActive *telemetry.Gauge
	// sessions by terminal outcome.
	sessionsCompleted *telemetry.Counter
	sessionsTimedOut  *telemetry.Counter
	sessionsErrored   *telemetry.Counter
	sessionsKilled    *telemetry.Counter
	// UplinkDropped counts station→plant messages lost to a full
	// per-session inbox (a stalled or runaway session's backpressure).
	UplinkDropped *telemetry.Counter
	// ProtocolErrors counts malformed wire input on served connections.
	ProtocolErrors *telemetry.Counter
}

// NewInstruments binds the hub instrument set in reg.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	sessions := reg.CounterVec("teledrive_hub_sessions_total",
		"Hosted sessions by terminal outcome.", "outcome")
	return &Instruments{
		SessionsActive: reg.Gauge("teledrive_hub_sessions_active",
			"Sessions currently executing in this hub."),
		sessionsCompleted: sessions.With("completed"),
		sessionsTimedOut:  sessions.With("timedout"),
		sessionsErrored:   sessions.With("error"),
		sessionsKilled:    sessions.With("killed"),
		UplinkDropped: reg.Counter("teledrive_hub_uplink_dropped_total",
			"Station→plant messages lost to a full session inbox."),
		ProtocolErrors: reg.Counter("teledrive_hub_protocol_errors_total",
			"Malformed wire messages on served hub connections."),
	}
}

// sessionDone counts a finished batch session under its outcome.
func (ins *Instruments) sessionDone(res SessionResult) {
	switch {
	case res.Err != nil:
		ins.sessionsErrored.Inc()
	case res.Outcome != nil && !res.Outcome.Completed:
		ins.sessionsTimedOut.Inc()
	default:
		ins.sessionsCompleted.Inc()
	}
}

// servedDone counts a finished served session by its end reason.
func (ins *Instruments) servedDone(reason string) {
	switch reason {
	case "completed":
		ins.sessionsCompleted.Inc()
	case "killed", "left":
		ins.sessionsKilled.Inc()
	default:
		ins.sessionsErrored.Inc()
	}
}
