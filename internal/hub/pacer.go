package hub

import (
	"encoding/json"
	"math"
	"sync"
	"time"

	"teledrive/internal/bridge"
)

// alwaysDue is the grid slot of a turbo session: never later than now,
// so the session steps in every batch.
const alwaysDue = math.MinInt64

// pacer steps a share of the hub's served sessions on one goroutine. All
// of a hub's pacers share one wall-clock grid, epoch + k·PhysicsTick, so
// the sessions of a station come due together and the frames they relay
// leave in one write per connection and tick. A session's first step
// runs at the first grid point at or after its join. On one grid every
// paced session comes due on every tick, so the pacer scans its
// sessions once per batch instead of ordering them by due time.
//
// The goroutine runs while the pacer holds sessions: the first join
// starts it, and it returns once its last session has finished, so a
// closed hub, whose connections kill every session, is left with none.
type pacer struct {
	h    *Hub
	wake chan struct{} // capacity 1: a join or a kill waits in mu

	mu      sync.Mutex
	running bool           // a run goroutine owns the session list
	joins   []*liveSession // handed over, not yet listed

	// Owned by the run goroutine.
	sessions []*liveSession
	touched  map[*hubConn]struct{} // connections with messages queued by this batch
}

func newPacer(h *Hub) *pacer {
	return &pacer{h: h, wake: make(chan struct{}, 1), touched: make(map[*hubConn]struct{})}
}

// add hands a joined session to the pacer, due at the first grid point
// at or after now.
//
//lint:allow wallclock live serving: a session's first step is due at the first grid point of real time after its join
func (p *pacer) add(ls *liveSession) {
	ls.p = p
	ls.due = alwaysDue
	if !ls.turbo {
		const tick = bridge.PhysicsTick
		ls.due = int64((time.Since(p.h.epoch) + tick - 1) / tick)
	}
	p.mu.Lock()
	p.joins = append(p.joins, ls)
	start := !p.running
	p.running = true
	p.mu.Unlock()
	if start {
		go p.run()
	} else {
		p.poke()
	}
}

// kill ends the session at its pacer's next pass, within one physics
// tick. The first reason wins.
func (ls *liveSession) kill(reason string) {
	if ls.reason.CompareAndSwap(nil, &reason) {
		ls.p.poke()
	}
}

// completed is the end reason of a session that ran its duration.
var completed = "completed"

func (p *pacer) poke() {
	select {
	case p.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run steps every due session, flushes each connection the batch wrote
// to once, and sleeps until the next session is due or a join or kill
// arrives. It returns when no session is left.
//
//lint:allow wallclock live serving: remote stations run in real time, so sim time is paced to (slaved under) the wall clock
func (p *pacer) run() {
	const tick = bridge.PhysicsTick
	epoch := p.h.epoch
	// One timer paces every batch. It is stopped here and, below, either
	// fires and is received or is stopped and drained, so each Reset
	// starts from an empty channel.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		p.mu.Lock()
		joins := p.joins
		p.joins = nil
		if len(joins) == 0 && len(p.sessions) == 0 {
			p.running = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		for _, ls := range joins {
			ls.srv.Start()
		}
		p.sessions = append(p.sessions, joins...)

		// Step every due session once, finish the killed and completed
		// ones, and keep the rest.
		slot := int64(time.Since(epoch) / tick)
		next := int64(math.MaxInt64)
		live := p.sessions[:0]
		for _, ls := range p.sessions {
			if ls.reason.Load() == nil && ls.due <= slot {
				ls.next += tick
				ls.step(ls.next)
				p.touched[ls.conn] = struct{}{}
				if ls.next >= ls.duration {
					ls.reason.CompareAndSwap(nil, &completed)
				} else if !ls.turbo {
					ls.due++
				}
			}
			if reason := ls.reason.Load(); reason != nil {
				p.finish(ls, *reason)
				continue
			}
			next = min(next, ls.due)
			live = append(live, ls)
		}
		clear(p.sessions[len(live):])
		p.sessions = live
		for hc := range p.touched {
			delete(p.touched, hc)
			if err := hc.ww.Flush(); err != nil {
				// The station is unreachable or stopped reading: a
				// write to it failed or timed out. Closing the socket
				// ends its read loop, which kills every session on it.
				_ = hc.c.Close()
			}
		}

		if len(p.sessions) == 0 || next <= int64(time.Since(epoch)/tick) {
			continue
		}
		timer.Reset(time.Until(epoch.Add(time.Duration(next) * tick)))
		select {
		case <-timer.C:
		case <-p.wake:
			if !timer.Stop() {
				<-timer.C
			}
		}
	}
}

// finish tears a session down on its pacer: stop the bridge, queue the
// terminal report behind the session's last frames, release the arena.
// The caller takes the session off the pacer's list.
func (p *pacer) finish(ls *liveSession, reason string) {
	ls.srv.Stop()
	st := ls.srv.Stats()
	end := SessionEnd{
		SessionID: ls.id, Reason: reason,
		SimTimeNS:  int64(ls.clock.Now()),
		FramesSent: st.FramesSent, FramesDropped: st.FramesDropped,
		DeltasSent: st.DeltasSent, EventsSent: st.EventsSent,
		EventsDropped: st.EventsDropped, Controls: st.ControlsApplied,
	}
	// Best-effort: the connection may already be gone.
	if body, err := json.Marshal(end); err == nil {
		//lint:allow errswallow terminal report on a possibly-dead connection; the batch's Flush reports a dead one
		_ = ls.conn.ww.QueueMsg(ls.id, kindEnd, body)
	}
	p.touched[ls.conn] = struct{}{}
	ls.conn.remove(ls.id)
	h := ls.h
	h.putScratch(ls.scratch)
	h.active.Add(-1)
	if h.ins != nil {
		h.ins.SessionsActive.Dec()
		h.ins.servedDone(reason)
	}
}
