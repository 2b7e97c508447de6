// Package simclock provides a deterministic simulated clock with a
// discrete-event timer queue.
//
// Every component of the test bench — physics, sensors, the network link
// emulator, transports, and the driver model — is driven from a single
// Clock so that a campaign run is a pure function of its configuration and
// seed. Wall-clock time never enters the simulation.
//
// Simulated time is represented as time.Duration elapsed since the start
// of the simulation (t = 0). There is no epoch; absolute dates are
// meaningless inside a run.
//
// Pending timers live in two queues. A FIFO lane holds the no-handle
// tasks (ScheduleTask/ScheduleTaskAt) whose deadline is the current
// instant — the zero-delay deliveries of a transparent netem link,
// about 85% of a campaign's task timers — and a binary heap holds every
// other timer. Every lane task shares one instant and enters in sequence
// order, so the lane is sorted by (at, seq) for free, and the clock
// fires whichever of the lane head and the heap top has the smaller
// (at, seq): one total order, the same as a single heap's.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Clock is a deterministic simulated clock. The zero value is ready to
// use and reads 0 simulated time.
//
// Clock is not safe for concurrent use; the simulation is single-threaded
// by design (determinism requirement, see DESIGN.md §6).
type Clock struct {
	now   time.Duration
	queue timerQueue
	// lane[laneHead:] holds the pending same-instant tasks in scheduling
	// order; every entry's at is now (time cannot advance past a
	// pending lane task, which is due).
	lane     []laneTask
	laneHead int
	seq      uint64
	// free recycles the Timer structs of fired heap task timers
	// (ScheduleTask/ScheduleTaskAt; lane tasks need none).
	// Handle-returning Schedule/ScheduleAt timers are never recycled:
	// callers may hold the *Timer arbitrarily long, and a recycled
	// handle would let a stale Cancel hit an unrelated timer.
	free []*Timer
}

// New returns a Clock starting at simulated time 0.
func New() *Clock {
	return &Clock{}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Timer is a handle for a scheduled callback. It is returned by Schedule
// and ScheduleAt and can be used to cancel the callback before it fires.
type Timer struct {
	at      time.Duration
	seq     uint64
	fn      func(now time.Duration)
	task    TimerTask // pooled no-handle callback; fn takes precedence
	index   int       // heap index; -1 once fired or cancelled
	stopped bool
}

// TimerTask is the no-handle form of a timer callback. Tasks scheduled
// with ScheduleTask/ScheduleTaskAt cannot be cancelled, which is what
// lets the clock recycle their Timer structs: per-packet schedulers (the
// netem delivery queue) fire millions of one-shot timers per campaign,
// and the freelist makes each one allocation-free in steady state.
type TimerTask interface {
	// Fire runs at the scheduled instant with the current simulated time.
	Fire(now time.Duration)
}

// laneTask is a pending same-instant task, held by value in the lane.
type laneTask struct {
	at   time.Duration
	seq  uint64
	task TimerTask
}

// At returns the simulated time the timer is scheduled to fire.
func (t *Timer) At() time.Duration {
	return t.at
}

// Stopped reports whether the timer has been cancelled or has fired.
func (t *Timer) Stopped() bool {
	return t.stopped || t.index < 0
}

// Schedule registers fn to run after d has elapsed from the current
// simulated time. A non-positive d schedules the callback at the current
// time; it still fires only on the next Advance/AdvanceTo/Step call, never
// synchronously. Callbacks scheduled for the same instant fire in
// scheduling order.
func (c *Clock) Schedule(d time.Duration, fn func(now time.Duration)) *Timer {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.now+d, fn)
}

// ScheduleAt registers fn to run at absolute simulated time at. If at is
// in the past it is clamped to the current time.
func (c *Clock) ScheduleAt(at time.Duration, fn func(now time.Duration)) *Timer {
	if fn == nil {
		panic("simclock: ScheduleAt with nil callback")
	}
	if at < c.now {
		at = c.now
	}
	t := &Timer{at: at, seq: c.seq, fn: fn}
	c.seq++
	c.queue.push(t)
	return t
}

// ScheduleTask registers task to fire after d, like Schedule but without
// returning a handle. The underlying timer is recycled after firing.
func (c *Clock) ScheduleTask(d time.Duration, task TimerTask) {
	if d < 0 {
		d = 0
	}
	c.ScheduleTaskAt(c.now+d, task)
}

// ScheduleTaskAt registers task to fire at absolute simulated time at
// (clamped to the current time when in the past). It is ScheduleAt for
// callers that never cancel: no handle is returned, and the timer struct
// comes from (and returns to) an internal freelist, so steady-state
// scheduling allocates nothing. A task due at the current instant (after
// clamping) skips the heap: it is appended to the same-instant lane,
// which needs no Timer at all. Ordering is identical to ScheduleAt —
// each call consumes exactly one sequence number, and the lane and the
// heap merge by (at, seq), so task timers and handle timers scheduled
// for the same instant still fire in scheduling order.
func (c *Clock) ScheduleTaskAt(at time.Duration, task TimerTask) {
	if task == nil {
		panic("simclock: ScheduleTaskAt with nil task")
	}
	if at <= c.now {
		c.pushLane(task)
		return
	}
	var t *Timer
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free = c.free[:n-1]
		*t = Timer{at: at, seq: c.seq, task: task}
	} else {
		t = &Timer{at: at, seq: c.seq, task: task}
	}
	c.seq++
	c.queue.push(t)
}

// pushLane appends a task due now to the lane, first sliding the pending
// entries down when the consumed prefix is all that stands between the
// lane and a reallocation.
func (c *Clock) pushLane(task TimerTask) {
	if c.laneHead > 0 && len(c.lane) == cap(c.lane) {
		n := copy(c.lane, c.lane[c.laneHead:])
		clear(c.lane[n:])
		c.lane = c.lane[:n]
		c.laneHead = 0
	}
	c.lane = append(c.lane, laneTask{at: c.now, seq: c.seq, task: task})
	c.seq++
}

// NewTimer returns an unscheduled timer bound to fn, for callers that
// re-arm one recurring deadline many times (retransmission timers, the
// physics and camera loops). Arm it with Reschedule; the same struct is
// reused for every arming, so the steady-state cost of a periodic loop
// is zero allocations.
func (c *Clock) NewTimer(fn func(now time.Duration)) *Timer {
	if fn == nil {
		panic("simclock: NewTimer with nil callback")
	}
	return &Timer{fn: fn, index: -1, stopped: true}
}

// Reschedule arms an owned timer (NewTimer) to fire after d, consuming
// one sequence number exactly as Schedule does — an owned timer re-armed
// every period is indistinguishable, ordering-wise, from a fresh timer
// per period. Rescheduling a still-pending timer is a bug (cancel it
// first); Reschedule panics on it.
func (c *Clock) Reschedule(t *Timer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.RescheduleAt(t, c.now+d)
}

// RescheduleAt is Reschedule with an absolute deadline (clamped to the
// current time when in the past).
func (c *Clock) RescheduleAt(t *Timer, at time.Duration) {
	if t == nil || t.fn == nil {
		panic("simclock: RescheduleAt needs a timer from NewTimer")
	}
	if t.index >= 0 {
		panic("simclock: RescheduleAt on a pending timer (cancel it first)")
	}
	if at < c.now {
		at = c.now
	}
	t.at = at
	t.seq = c.seq
	t.stopped = false
	c.seq++
	c.queue.push(t)
}

// Cancel removes the timer from the queue. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the timer was
// pending.
func (c *Clock) Cancel(t *Timer) bool {
	if t == nil || t.index < 0 {
		return false
	}
	c.queue.remove(t.index)
	t.stopped = true
	return true
}

// PendingTimers returns the number of timers waiting to fire.
func (c *Clock) PendingTimers() int {
	return len(c.queue) + len(c.lane) - c.laneHead
}

// NextAt returns the firing time of the earliest pending timer. The second
// return value is false when no timers are pending.
func (c *Clock) NextAt() (time.Duration, bool) {
	if c.laneFirst() {
		return c.lane[c.laneHead].at, true
	}
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].at, true
}

// laneFirst reports whether the lane head is the earliest pending timer:
// the lane is non-empty and its head precedes the heap top by (at, seq).
func (c *Clock) laneFirst() bool {
	if c.laneHead == len(c.lane) {
		return false
	}
	if len(c.queue) == 0 {
		return true
	}
	l, h := &c.lane[c.laneHead], c.queue[0]
	return l.at < h.at || l.at == h.at && l.seq < h.seq
}

// fireNext fires the earliest pending timer if it is due at or before
// limit, and reports whether one fired.
func (c *Clock) fireNext(limit time.Duration) bool {
	if c.laneFirst() {
		e := c.lane[c.laneHead]
		if e.at > limit {
			return false
		}
		c.lane[c.laneHead] = laneTask{}
		if c.laneHead++; c.laneHead == len(c.lane) {
			c.lane = c.lane[:0]
			c.laneHead = 0
		}
		c.now = e.at
		e.task.Fire(e.at)
		return true
	}
	if len(c.queue) == 0 || c.queue[0].at > limit {
		return false
	}
	c.fire(c.queue.remove(0))
	return true
}

// Advance moves simulated time forward by d, firing all timers scheduled
// in (now, now+d] in timestamp order. Callbacks may schedule further
// timers; those are fired too if they fall within the window. Advance
// panics if d is negative.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance(%v) with negative duration", d))
	}
	c.AdvanceTo(c.now + d)
}

// AdvanceTo moves simulated time forward to t, firing all timers scheduled
// at or before t in timestamp order. AdvanceTo panics if t is in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v) before current time %v", t, c.now))
	}
	for c.fireNext(t) {
	}
	c.now = t
}

// fire runs one popped timer's callback at its deadline, recycling
// pooled task timers. The struct is returned to the freelist before the
// callback runs, so a task that immediately reschedules reuses the very
// timer it fired from.
func (c *Clock) fire(tm *Timer) {
	c.now = tm.at
	tm.stopped = true
	if tm.fn != nil {
		tm.fn(c.now)
		return
	}
	task := tm.task
	tm.task = nil
	c.free = append(c.free, tm)
	task.Fire(c.now)
}

// Step fires the earliest pending timer, advancing simulated time to its
// deadline. It reports whether a timer fired; when no timers are pending
// the clock is unchanged and Step returns false.
func (c *Clock) Step() bool {
	return c.fireNext(math.MaxInt64)
}

// Run fires pending timers until none remain or the limit is reached.
// It returns the number of timers fired. A limit of 0 means no limit.
// Run guards against runaway self-rescheduling loops in tests.
func (c *Clock) Run(limit int) int {
	fired := 0
	for c.Step() {
		fired++
		if limit > 0 && fired >= limit {
			break
		}
	}
	return fired
}

// timerQueue is a binary min-heap of timers ordered by (at, seq). The
// order is total (seq is unique per scheduling), so the pop sequence is
// fully determined by the timers, whatever the heap's internal layout.
// Every queued timer's index is its slot; a timer outside the queue has
// index -1.
type timerQueue []*Timer

func (q timerQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q timerQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *timerQueue) push(t *Timer) {
	t.index = len(*q)
	*q = append(*q, t)
	q.up(t.index)
}

// remove takes the timer at slot i out of the queue and returns it;
// remove(0) pops the earliest.
func (q *timerQueue) remove(i int) *Timer {
	old := *q
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	t := old[n]
	old[n] = nil
	t.index = -1
	*q = old[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
	return t
}

func (q timerQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts slot i0 toward the leaves and reports whether it moved.
func (q timerQueue) down(i0 int) bool {
	i, n := i0, len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}
