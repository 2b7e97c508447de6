// Hub wire protocol: one TCP stream multiplexes every session a
// station drives. Messages travel on the transport framed stream
// (DESIGN.md §13.7): the frame's Seq carries the session id and its tag
// the message kind. Bridge traffic is relayed verbatim under
// kindBridge, and a small set of JSON control messages
// (join/joined/leave/end/error) manages the session lifecycle.
package hub

import "teledrive/internal/netem"

// Message kinds. Bridge relay traffic is low-valued; control messages
// sit at 0xA0+ so a new bridge payload class can never collide.
const (
	kindBridge byte = 0x01 // either direction: raw bridge message for/from the session

	kindJoin   byte = 0xA0 // station → hub: JSON JoinRequest (session id 0)
	kindJoined byte = 0xA1 // hub → station: JSON JoinReply (session id assigned)
	kindLeave  byte = 0xA2 // station → hub: detach the session
	kindEnd    byte = 0xA3 // hub → station: JSON SessionEnd (terminal)
	kindError  byte = 0xA4 // hub → station: JSON WireError (connection-level)
)

// JoinRequest asks the hub to host a session. Joins on one connection
// are answered in request order (the station serializes them).
type JoinRequest struct {
	// Scenario names a library scenario (scenario.ByName).
	Scenario string `json:"scenario"`
	// Name labels the session in hub telemetry; empty = scenario name.
	Name string `json:"name,omitempty"`
	// Seed decorrelates the session's network randomness.
	Seed int64 `json:"seed"`
	// Delta enables keyframe+diff world-view streaming downlink.
	Delta bool `json:"delta,omitempty"`
	// KeyframeEvery bounds the diff chain (0 = bridge default).
	KeyframeEvery int `json:"keyframe_every,omitempty"`
	// VideoBytes overrides the synthetic encoded-video payload per full
	// frame (0 = sensors.DefaultVideoFrameBytes). Fragile links want
	// this small: every MTU's worth is one more fragment to lose.
	VideoBytes int `json:"video_bytes,omitempty"`
	// VideoDeltaBytes overrides the synthetic video residual shipped by
	// delta frames (0 = sensors.DefaultVideoDeltaBytes).
	VideoDeltaBytes int `json:"video_delta_bytes,omitempty"`
	// Rule, when non-nil, is a persistent netem impairment applied to
	// both directions of the session's emulated link.
	Rule *netem.Rule `json:"rule,omitempty"`
	// DurationNS bounds the session's simulated lifetime (0 = the
	// scenario timeout).
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Reliable selects the TCP-like channel (default true via pointer
	// absence is awkward in JSON, so the zero value means reliable and
	// Datagram flips it).
	Datagram bool `json:"datagram,omitempty"`
}

// JoinReply answers a JoinRequest.
type JoinReply struct {
	SessionID uint64 `json:"session_id"`
	Scenario  string `json:"scenario,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SessionEnd reports a session's terminal state.
type SessionEnd struct {
	SessionID uint64 `json:"session_id"`
	// Reason is "completed" (duration reached), "killed" (connection or
	// hub shutdown), "left" (station detached), or "error".
	Reason    string `json:"reason"`
	SimTimeNS int64  `json:"sim_time_ns"`
	// Terminal bridge counters, as the plant saw them.
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
	DeltasSent    uint64 `json:"deltas_sent"`
	EventsSent    uint64 `json:"events_sent"`
	EventsDropped uint64 `json:"events_dropped"`
	Controls      uint64 `json:"controls_applied"`
}

// WireError is a connection-level failure report.
type WireError struct {
	Error string `json:"error"`
}
