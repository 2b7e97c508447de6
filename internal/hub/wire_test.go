package hub

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
)

// TestHubWireBytes pins the hub's wire format to byte vectors recorded
// before the framing moved into transport: a bridge message for session
// 7 and a join request.
func TestHubWireBytes(t *testing.T) {
	join, err := json.Marshal(JoinRequest{Scenario: "training", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		session uint64
		kind    byte
		body    []byte
		want    string
	}{
		{"bridge", 7, kindBridge, []byte{0x02, 0x10, 0x20, 0x30},
			"00000020" + "7d5a01" + "0000000000000007" + "0000000000000000" + "00000005" + "01" + "02102030" + "56c3f6d8"},
		{"join", 0, kindJoin, join,
			"0000003c" + "7d5a01" + "0000000000000000" + "0000000000000000" + "00000021" + "a0" +
				hex.EncodeToString([]byte(`{"scenario":"training","seed":7}`)) + "c00ac8c1"},
	} {
		var buf bytes.Buffer
		if err := transport.NewStreamWriter(&buf).WriteMsg(tc.session, tc.kind, tc.body); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("%s message:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// tickSession builds one served session on a hub of its own, its
// downlink captured in a buffer. Two sessions built with the same seed
// get the same id and run bit-identically.
func tickSession(t *testing.T, seed int64) (*liveSession, *bytes.Buffer) {
	t.Helper()
	h := New(Config{Turbo: true})
	down := new(bytes.Buffer)
	hc := &hubConn{h: h, ww: transport.NewStreamWriter(down), sessions: make(map[uint64]*liveSession)}
	ls, err := h.newLiveSession(hc, JoinRequest{Scenario: "follow-vehicle", Seed: seed, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	ls.srv.Start()
	t.Cleanup(ls.srv.Stop)
	return ls, down
}

// TestHubWireTickDrain pins the tick-time uplink drain against sending
// on arrival. One session gets controls and pings through its inbox
// while it waits for the next tick; its twin gets the same messages
// sent straight into its uplink endpoint at the previous step's
// clock.Now(), as they arrived. The drain must send all of them at the
// next step, in order, and leave the plant and the whole downlink
// byte-identical to the twin's. The downlink relay only queues, so each
// tick flushes both connections after the step, as a pacer does after
// its batch.
func TestHubWireTickDrain(t *testing.T) {
	drained, downDrained := tickSession(t, 41)
	direct, downDirect := tickSession(t, 41)
	next := time.Duration(0)
	tick := func() {
		next += bridge.PhysicsTick
		drained.step(next)
		direct.clock.AdvanceTo(next)
		for _, ls := range []*liveSession{drained, direct} {
			if err := ls.conn.ww.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 50 {
		tick()
	}

	var msgs [][]byte
	for i, throttle := range []float64{0.2, 0.6, 0.9} {
		msgs = append(msgs, bridge.AppendControlMsg(nil, vehicle.Control{Throttle: throttle, Steer: 0.1 * float64(i)}))
		ping, err := json.Marshal(bridge.MetaCommand{Seq: uint64(i + 1), Cmd: "ping"})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, append([]byte{byte(bridge.MsgMeta)}, ping...))
	}
	sentBefore := drained.station.Stats().MsgsSent
	for _, m := range msgs {
		drained.inbox <- m
		if err := direct.station.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	if len(drained.inbox) != 0 {
		t.Fatalf("%d messages still queued after the step", len(drained.inbox))
	}
	if sent := drained.station.Stats().MsgsSent - sentBefore; sent != uint64(len(msgs)) {
		t.Fatalf("step sent %d of %d queued messages", sent, len(msgs))
	}
	for range 100 {
		tick()
	}

	if got, want := drained.srv.Stats(), direct.srv.Stats(); got != want || got.ControlsApplied != 3 {
		t.Fatalf("plant stats %+v, want %+v with 3 controls applied", got, want)
	}
	if got, want := drained.srv.LastControl(), (vehicle.Control{Throttle: 0.9, Steer: 0.2}); got != want {
		t.Errorf("last applied control %+v, want the last one sent %+v", got, want)
	}
	if !bytes.Equal(downDrained.Bytes(), downDirect.Bytes()) {
		t.Error("downlink differs from the session that sent on arrival")
	}
	var seqs []uint64
	sr := transport.NewStreamReader(downDrained)
	for {
		m, err := sr.ReadMsg()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Body) > 0 && bridge.MsgType(m.Body[0]) == bridge.MsgMetaReply {
			var r bridge.MetaReply
			if err := json.Unmarshal(m.Body[1:], &r); err != nil {
				t.Fatal(err)
			}
			if r.Data["time_ns"] != "" {
				seqs = append(seqs, r.Seq)
			}
		}
	}
	if fmt.Sprint(seqs) != "[1 2 3]" {
		t.Errorf("ping replies in order %v, want [1 2 3]", seqs)
	}
}
