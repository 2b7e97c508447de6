// Package bridge implements the custom RPC bridge between the vehicle
// subsystem and the operator station — the stand-in for the CARLA
// client/server protocol (server renders and simulates; client controls
// the actor and sends meta-commands, §II-A/III-B of the paper).
//
// All messages travel over one reliable transport.Conn, like CARLA's TCP
// connection. Message classes mirror CARLA's: sensor streams (camera
// frames, collision and lane-invasion events) flow server→client;
// driving commands (VehicleControl) and meta-commands (weather, frame
// rate, ping) flow client→server.
package bridge

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// MsgType discriminates bridge messages (first payload byte).
type MsgType uint8

// Bridge message types.
const (
	MsgFrame MsgType = iota + 1 // server→client: camera world view
	MsgCollision
	MsgLaneInvasion
	MsgControl // client→server: vehicle control
	MsgMeta    // client→server: meta-command
	MsgMetaReply
	MsgDeltaFrame // server→client: world view as a diff against a prior frame
)

// String returns a short message-type name.
func (t MsgType) String() string {
	switch t {
	case MsgFrame:
		return "frame"
	case MsgCollision:
		return "collision"
	case MsgLaneInvasion:
		return "lane-invasion"
	case MsgControl:
		return "control"
	case MsgMeta:
		return "meta"
	case MsgMetaReply:
		return "meta-reply"
	case MsgDeltaFrame:
		return "delta-frame"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// ErrBadMessage reports an undecodable bridge message.
var ErrBadMessage = errors.New("bridge: malformed message")

// envelope prepends the type byte.
func envelope(t MsgType, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = byte(t)
	copy(out[1:], body)
	return out
}

// splitEnvelope returns the message type and body.
func splitEnvelope(payload []byte) (MsgType, []byte, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("%w: empty payload", ErrBadMessage)
	}
	return MsgType(payload[0]), payload[1:], nil
}

// --- VehicleControl wire codec -----------------------------------------

const controlWireLen = 3*8 + 1

// controlFlags bit assignments.
const (
	flagReverse   = 1 << 0
	flagHandBrake = 1 << 1
)

// ControlMsgLen is the length of an enveloped MsgControl message: a
// [ControlMsgLen]byte array holds one without allocating.
const ControlMsgLen = 1 + controlWireLen

// MarshalControl serializes a vehicle control command.
func MarshalControl(c vehicle.Control) []byte {
	return appendControl(make([]byte, 0, controlWireLen), c)
}

// AppendControlMsg appends the enveloped MsgControl wire form to dst —
// the allocation-free path for the 50 Hz control send when dst has
// room (a reused buffer, or a [ControlMsgLen]byte stack array).
func AppendControlMsg(dst []byte, c vehicle.Control) []byte {
	return appendControl(append(dst, byte(MsgControl)), c)
}

func appendControl(dst []byte, c vehicle.Control) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Throttle))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Steer))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Brake))
	var flags byte
	if c.Reverse {
		flags |= flagReverse
	}
	if c.HandBrake {
		flags |= flagHandBrake
	}
	return append(dst, flags)
}

// UnmarshalControl decodes a control command.
func UnmarshalControl(buf []byte) (vehicle.Control, error) {
	if len(buf) != controlWireLen {
		return vehicle.Control{}, fmt.Errorf("%w: control length %d", ErrBadMessage, len(buf))
	}
	c := vehicle.Control{
		Throttle:  math.Float64frombits(binary.BigEndian.Uint64(buf[0:])),
		Steer:     math.Float64frombits(binary.BigEndian.Uint64(buf[8:])),
		Brake:     math.Float64frombits(binary.BigEndian.Uint64(buf[16:])),
		Reverse:   buf[24]&flagReverse != 0,
		HandBrake: buf[24]&flagHandBrake != 0,
	}
	for _, f := range [...]float64{c.Throttle, c.Steer, c.Brake} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return vehicle.Control{}, fmt.Errorf("%w: non-finite control value", ErrBadMessage)
		}
	}
	return c, nil
}

// --- Meta-commands ------------------------------------------------------

// MetaCommand is a CARLA-style meta-command affecting server behaviour
// (weather, sensor properties, road users — §III-B).
type MetaCommand struct {
	// Seq correlates replies with requests.
	Seq uint64 `json:"seq"`
	// Cmd names the command: "set_weather", "set_frame_interval",
	// "ping", "get_stats".
	Cmd string `json:"cmd"`
	// Args carries command parameters.
	Args map[string]string `json:"args,omitempty"`
}

// MetaReply answers a MetaCommand.
type MetaReply struct {
	Seq   uint64            `json:"seq"`
	OK    bool              `json:"ok"`
	Error string            `json:"error,omitempty"`
	Data  map[string]string `json:"data,omitempty"`
}

// --- Sensor events ------------------------------------------------------

// EventKind labels sensor events on the wire.
type EventKind string

// Event kinds.
const (
	EventCollision    EventKind = "collision"
	EventLaneInvasion EventKind = "lane_invasion"
)

// CollisionWire is the wire form of a collision event.
type CollisionWire struct {
	TimeNS int64         `json:"time_ns"`
	Frame  uint64        `json:"frame"`
	Actor  world.ActorID `json:"actor"`
	Other  world.ActorID `json:"other"`
	SpeedA float64       `json:"speed_a"`
	SpeedB float64       `json:"speed_b"`
}

// LaneInvasionWire is the wire form of a lane-invasion event.
type LaneInvasionWire struct {
	TimeNS  int64         `json:"time_ns"`
	Frame   uint64        `json:"frame"`
	Actor   world.ActorID `json:"actor"`
	Kind    string        `json:"kind"`
	LaneID  string        `json:"lane_id"`
	Lateral float64       `json:"lateral"`
}

func marshalJSONMsg(t MsgType, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("bridge: marshal %v: %w", t, err)
	}
	return envelope(t, body), nil
}

func collisionToWire(ev world.CollisionEvent) CollisionWire {
	return CollisionWire{
		TimeNS: int64(ev.Time), Frame: ev.Frame,
		Actor: ev.Actor, Other: ev.Other,
		SpeedA: ev.SpeedA, SpeedB: ev.SpeedB,
	}
}

func laneInvasionToWire(ev world.LaneInvasionEvent) LaneInvasionWire {
	return LaneInvasionWire{
		TimeNS: int64(ev.Time), Frame: ev.Frame, Actor: ev.Actor,
		Kind: ev.Kind.String(), LaneID: ev.LaneID, Lateral: ev.Lateral,
	}
}
