package bridge

import (
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/sensors"
	"teledrive/internal/world"
)

// viewAt is a small world view for frame f whose actor set varies with
// f, so diffs carry adds, changes and removals.
func viewAt(f uint64) sensors.WorldView {
	v := sensors.WorldView{
		Frame: f, SimTime: time.Duration(f) * 20 * time.Millisecond,
		Ego: sensors.ActorView{ID: 1, Pose: geom.Pose{Pos: geom.V(float64(f), 0)}, Speed: 10},
	}
	for i := uint64(0); i < f%4; i++ {
		v.Others = append(v.Others, sensors.ActorView{
			ID: world.ActorID(2 + i), Kind: world.KindCar,
			Pose: geom.Pose{Pos: geom.V(float64(f+10*i), 3)}, Speed: float64(i),
		})
	}
	return v
}

func keyframe(f uint64) []byte { return sensors.MarshalWorldView(viewAt(f)) }

func delta(base, f uint64) []byte {
	return sensors.MarshalWorldViewDelta(viewAt(base), viewAt(f), 0)
}

// TestDisplaySequence drives one display through every outcome and
// checks its counters, the displayed frame and the keyframe-request
// spacing after each message.
func TestDisplaySequence(t *testing.T) {
	type step struct {
		name    string
		kind    MsgType
		body    []byte
		want    Outcome
		request bool
		shown   uint64 // displayed frame afterwards; 0 = nothing displayed
		stats   DisplayStats
	}
	steps := []step{
		{"delta before any keyframe", MsgDeltaFrame, delta(4, 5), Resync, true, 0,
			DisplayStats{DeltaResyncs: 1}},
		{"keyframe", MsgFrame, keyframe(5), Shown, false, 5,
			DisplayStats{FramesReceived: 1, DeltaResyncs: 1}},
		{"delta applied", MsgDeltaFrame, delta(5, 6), Shown, false, 6,
			DisplayStats{FramesReceived: 2, DeltasApplied: 1, DeltaResyncs: 1}},
		{"older keyframe", MsgFrame, keyframe(3), Stale, false, 6,
			DisplayStats{FramesReceived: 3, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 1}},
		{"delta on a wrong base", MsgDeltaFrame, delta(5, 7), Resync, true, 6,
			DisplayStats{FramesReceived: 3, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 2}},
		{"malformed keyframe", MsgFrame, []byte{1, 2, 3}, Malformed, false, 6,
			DisplayStats{FramesReceived: 3, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 2}},
		{"malformed delta", MsgDeltaFrame, delta(6, 7)[:20], Malformed, false, 6,
			DisplayStats{FramesReceived: 3, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 2}},
		{"not a frame kind", MsgControl, keyframe(9), Malformed, false, 6,
			DisplayStats{FramesReceived: 3, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 2}},
	}
	var d Display
	for _, s := range steps {
		o, req := d.Apply(s.kind, s.body)
		if o != s.want || req != s.request {
			t.Fatalf("%s: outcome %d request %v, want %d %v", s.name, o, req, s.want, s.request)
		}
		v, ok := d.View()
		if ok != (s.shown != 0) || v.Frame != s.shown {
			t.Fatalf("%s: displayed frame %d (ok %v), want %d", s.name, v.Frame, ok, s.shown)
		}
		if got := d.Stats(); got != s.stats {
			t.Fatalf("%s: stats %+v, want %+v", s.name, got, s.stats)
		}
	}
	if v, _ := d.View(); len(v.Others) != len(viewAt(6).Others) || v.Ego != viewAt(6).Ego {
		t.Fatalf("displayed view %+v, want frame 6's content", v)
	}

	// The wrong-base diff above was break 1 of a new streak. A broken
	// chain asks again on breaks 8 and 16 only, and an accepted frame
	// restarts the count.
	for brk := 2; brk <= 17; brk++ {
		o, req := d.Apply(MsgDeltaFrame, delta(5, 7))
		if o != Resync || req != (brk == 8 || brk == 16) {
			t.Fatalf("break %d: outcome %d request %v", brk, o, req)
		}
	}
	if o, _ := d.Apply(MsgDeltaFrame, delta(6, 8)); o != Shown {
		t.Fatalf("diff on the displayed base: outcome %d", o)
	}
	if o, req := d.Apply(MsgDeltaFrame, delta(6, 9)); o != Resync || !req {
		t.Fatalf("first break after an accepted frame: outcome %d request %v", o, req)
	}
	if got := d.Stats().DeltaResyncs; got != 2+16+1 {
		t.Fatalf("resyncs = %d, want 19", got)
	}
}

// FuzzDisplay feeds a display arbitrary sequences of keyframes, diffs
// and corrupted or foreign bodies. It must never panic, every message
// must land in exactly one counter, and the displayed frame must only
// move forward.
//
// The script is read three bytes at a time, (op, a, b):
//
//	op&3 == 0: keyframe of frame a
//	op&3 == 1: diff from frame a to frame b
//	op&3 == 2: keyframe of frame a cut to b bytes
//	op&3 == 3: diff from a to b with byte op>>2 flipped
//
// and op&0x80 relabels the body as a kind that is not a frame.
func FuzzDisplay(f *testing.F) {
	f.Add([]byte{1, 4, 5, 0, 5, 0, 1, 5, 6, 0, 3, 0, 1, 5, 7, 2, 9, 20})
	f.Add([]byte{0, 1, 0, 1, 1, 2, 1, 2, 3, 3, 3, 4, 0x83, 3, 4, 1, 3, 4})
	f.Add([]byte{0, 200, 0, 1, 200, 201, 7, 201, 202, 11, 201, 202, 0, 100, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var d Display
		var msgs, malformed, shown uint64
		var last uint64
		for len(script) >= 3 {
			op, a, b := script[0], uint64(script[1]), uint64(script[2])
			script = script[3:]
			kind, body := MsgFrame, keyframe(a)
			switch op & 3 {
			case 1:
				kind, body = MsgDeltaFrame, delta(a, b)
			case 2:
				body = body[:min(int(b), len(body))]
			case 3:
				kind, body = MsgDeltaFrame, delta(a, b)
				body[int(op>>2)%len(body)] ^= 0x5A
			}
			if op&0x80 != 0 {
				kind = MsgMetaReply
			}
			before := d.Stats()
			o, req := d.Apply(kind, body)
			msgs++
			after := d.Stats()
			if req && o != Resync {
				t.Fatalf("keyframe request with outcome %d", o)
			}
			switch o {
			case Shown:
				shown++
				v, ok := d.View()
				if !ok || (shown > 1 && v.Frame <= last) {
					t.Fatalf("displayed frame %d after %d (ok %v)", v.Frame, last, ok)
				}
				last = v.Frame
			case Stale:
				if after.FramesStale != before.FramesStale+1 {
					t.Fatalf("stale outcome not counted: %+v -> %+v", before, after)
				}
			case Resync:
				if after.DeltaResyncs != before.DeltaResyncs+1 {
					t.Fatalf("resync outcome not counted: %+v -> %+v", before, after)
				}
			case Malformed:
				malformed++
				if after != before {
					t.Fatalf("malformed body changed counters: %+v -> %+v", before, after)
				}
			default:
				t.Fatalf("unknown outcome %d", o)
			}
			if after.DeltasApplied > after.FramesReceived {
				t.Fatalf("more diffs applied than frames received: %+v", after)
			}
			if msgs != after.FramesReceived+after.DeltaResyncs+malformed {
				t.Fatalf("%d messages, counted %+v + %d malformed", msgs, after, malformed)
			}
			if shown != after.FramesReceived-after.FramesStale {
				t.Fatalf("%d displayed, counted %+v", shown, after)
			}
		}
	})
}
