package session

import (
	"teledrive/internal/bridge"
	"teledrive/internal/netem"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// Stack is one built plant+link+operator-side endpoint: everything a
// session needs below the operator. The plant is the bridge server over
// the simulated world — the simulator and the scale model speak the
// same bridge protocol — and the Client is both the control sink and
// the operator station's perception/meta endpoint.
type Stack struct {
	Plant  *bridge.Server
	Client *bridge.Client
	Link   Link
}

// StackBuilder constructs a stack over a scenario's world. Every drive
// runs on NewStack; the hook exists so the bench probe can keep the
// stack it builds (to read transport and netem counters at teardown)
// and so tests can impair a link before the drive starts.
type StackBuilder func(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*Stack, error)

// NewStack is the standard builder: a bridge server/client pair over a
// netem-emulated duplex link.
func NewStack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*Stack, error) {
	sess, err := bridge.NewSessionWithTransport(clock, w, ego, seed, topts)
	if err != nil {
		return nil, err
	}
	return &Stack{
		Plant:  sess.Server,
		Client: sess.Client,
		Link:   NetemLink{Conn: sess.Conn},
	}, nil
}

// NetemLink is the simulated communication network: a duplex pair of
// NETEM-emulated links carrying the bridge transport.
type NetemLink struct {
	Conn *transport.Conn
}

// Faults implements Link: the duplex is the fault-injection surface.
func (l NetemLink) Faults() *netem.Duplex { return l.Conn.Links }
