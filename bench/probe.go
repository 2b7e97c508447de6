package main

import (
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/rds"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// counts are the exact per-layer work counters one drive reports
// through public stats: the transport endpoints and netem links of its
// stack, the bridge server, and the session tick count.
type counts struct {
	Msgs          uint64 `json:"msgs_delivered"`
	Fragments     uint64 `json:"fragments"`
	Retransmits   uint64 `json:"retransmits"`
	WindowRejects uint64 `json:"window_rejects"`
	OutOfOrder    uint64 `json:"out_of_order_held"`
	Packets       uint64 `json:"netem_packets"`
	Lost          uint64 `json:"netem_lost"`
	Steps         uint64 `json:"world_steps"`
	Frames        uint64 `json:"frames_captured"`
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
	Deltas        uint64 `json:"deltas_sent"`
	DriverTicks   uint64 `json:"driver_ticks"`
}

func (c *counts) add(o counts) {
	c.Msgs += o.Msgs
	c.Fragments += o.Fragments
	c.Retransmits += o.Retransmits
	c.WindowRejects += o.WindowRejects
	c.OutOfOrder += o.OutOfOrder
	c.Packets += o.Packets
	c.Lost += o.Lost
	c.Steps += o.Steps
	c.Frames += o.Frames
	c.FramesSent += o.FramesSent
	c.FramesDropped += o.FramesDropped
	c.Deltas += o.Deltas
	c.DriverTicks += o.DriverTicks
}

// outcomeCounts reads the bridge and session counters every rds outcome
// carries. Each operator tick sends or drops exactly one control.
func outcomeCounts(out *rds.Outcome) counts {
	s := out.ServerStats
	return counts{
		Steps:         out.WallTicks,
		Frames:        s.FramesSent + s.FramesDropped,
		FramesSent:    s.FramesSent,
		FramesDropped: s.FramesDropped,
		Deltas:        s.DeltasSent,
		DriverTicks:   out.ClientStats.ControlsSent + out.ClientStats.ControlsDropped,
	}
}

// probe rides one drive. As an observer it times the drive's run phases
// (wire → teardown, host time) and, when traced, the host interval
// between consecutive physics ticks. As the drive's stack builder
// (traced runs only) it calls session.NewStack unchanged and keeps the
// stack, so the transport and netem counters can be read at teardown.
// A probe is confined to the goroutine running its drive until the
// executor returns.
type probe struct {
	session.NopObserver
	traced bool

	wire     time.Time
	lastTick time.Time
	hostMS   float64
	ticks    hist
	stack    *session.Stack
	c        counts
}

// build implements session.StackBuilder.
func (p *probe) build(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*session.Stack, error) {
	st, err := session.NewStack(clock, w, ego, seed, topts)
	p.stack = st
	return st, err
}

// attach wires the probe into a drive's observer list and, when
// traced, its stack builder (core.RunSpec and rds.BenchConfig name the
// two fields differently).
func (p *probe) attach(obs *[]session.Observer, stack *session.StackBuilder) {
	*obs = append(*obs, p)
	if p.traced {
		*stack = p.build
	}
}

// RunPhase implements session.Observer.
//
//lint:allow wallclock the probe measures the host time a drive costs, never simulated time
func (p *probe) RunPhase(ph session.Phase, _ time.Duration) {
	if ph == session.PhaseWire {
		p.wire = time.Now()
		return
	}
	if ph != session.PhaseTeardown {
		return
	}
	p.hostMS = ms(time.Since(p.wire))
	if p.stack == nil {
		return
	}
	if l, ok := p.stack.Link.(session.NetemLink); ok {
		for _, ep := range []*transport.Endpoint{l.Conn.A, l.Conn.B} {
			s := ep.Stats()
			p.c.Msgs += s.MsgsDelivered
			p.c.Fragments += s.FragmentsSent
			p.c.Retransmits += s.Retransmits
			p.c.WindowRejects += s.WindowRejects
			p.c.OutOfOrder += s.OutOfOrderHeld
		}
		for _, ln := range []*netem.Link{l.Conn.Links.Down, l.Conn.Links.Up} {
			s := ln.Stats()
			p.c.Packets += s.Sent
			p.c.Lost += s.Lost
		}
	}
	p.stack = nil
}

// Tick implements session.Observer; allocation-free.
//
//lint:allow wallclock the probe measures host time between physics ticks, never simulated time
func (p *probe) Tick(time.Duration) {
	if !p.traced {
		return
	}
	now := time.Now()
	if !p.lastTick.IsZero() {
		p.ticks.add(now.Sub(p.lastTick))
	}
	p.lastTick = now
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
