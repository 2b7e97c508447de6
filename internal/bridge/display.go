package bridge

import (
	"errors"

	"teledrive/internal/sensors"
)

// DisplayStats counts the frames an operator display was handed. Every
// keyframe or diff lands in exactly one of FramesReceived, DeltaResyncs
// or a Malformed outcome; FramesStale is the part of FramesReceived
// that did not display.
type DisplayStats struct {
	FramesReceived uint64
	FramesStale    uint64 // frames older than the one already displayed
	DeltasApplied  uint64 // frames reconstructed from diffs (subset of FramesReceived)
	DeltaResyncs   uint64 // diffs whose base the station no longer held
}

// Outcome is what one frame body did to a Display.
type Outcome uint8

// Display outcomes.
const (
	Shown     Outcome = iota + 1 // a newer frame is now displayed
	Stale                        // decoded, but not newer than the displayed frame
	Resync                       // a diff whose base is not displayed: the chain broke
	Malformed                    // undecodable body; nothing changed
)

// Display is the frame an operator station shows: it turns a stream of
// keyframes (MsgFrame) and diffs (MsgDeltaFrame) into the monotonically
// newer view the operator acts on. bridge.Client and hub stations both
// display through it, so "displayed" has one definition.
//
// Decoding is double-buffered: each body decodes into a spare view, and
// on display the two swap, so the displaced view's actor backing
// becomes the next decode target. A view handed out by View is
// therefore stable only until the next Shown outcome — consumers that
// look further back copy what they keep (the driver's reaction buffer
// does).
type Display struct {
	view, spare sensors.WorldView
	valid       bool
	// streak counts chain breaks since the last displayed frame; it
	// spaces out keyframe requests.
	streak int
	stats  DisplayStats
}

// Apply hands the display one frame body of kind t (MsgFrame or
// MsgDeltaFrame; any other kind is Malformed). Only monotonically newer
// frames display: one that arrives late (reordering, duplication) is
// Stale and discarded.
//
// requestKeyframe reports that the caller should ask the server to
// restart the diff chain. A diff applies against the displayed view, so
// nothing displayed yet or a lost base frame breaks the chain. Requests
// are spaced out: under sustained loss every broken diff would
// otherwise emit one, and they ride the same lossy uplink — so the
// first break asks at once and persistence retries every eighth.
func (d *Display) Apply(t MsgType, body []byte) (o Outcome, requestKeyframe bool) {
	var err error
	switch t {
	case MsgFrame:
		err = sensors.UnmarshalWorldViewInto(&d.spare, body)
	case MsgDeltaFrame:
		err = sensors.ErrDeltaBaseMismatch
		if d.valid {
			err = sensors.ApplyWorldViewDelta(&d.spare, d.view, body)
		}
	default:
		return Malformed, false
	}
	if errors.Is(err, sensors.ErrDeltaBaseMismatch) {
		d.stats.DeltaResyncs++
		d.streak++
		return Resync, d.streak == 1 || d.streak%8 == 0
	}
	if err != nil {
		return Malformed, false
	}
	d.stats.FramesReceived++
	if t == MsgDeltaFrame {
		d.stats.DeltasApplied++
	}
	if d.valid && d.spare.Frame <= d.view.Frame {
		d.stats.FramesStale++
		return Stale, false
	}
	d.view, d.spare = d.spare, d.view
	d.valid = true
	d.streak = 0
	return Shown, false
}

// View returns the displayed world view. ok is false until the first
// frame displays.
func (d *Display) View() (view sensors.WorldView, ok bool) { return d.view, d.valid }

// Stats returns a snapshot of the display counters.
func (d *Display) Stats() DisplayStats { return d.stats }
