package simclock

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
	if n := c.PendingTimers(); n != 0 {
		t.Fatalf("zero clock PendingTimers() = %d, want 0", n)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	c.Advance(250 * time.Millisecond)
	if got := c.Now(); got != 250*time.Millisecond {
		t.Fatalf("Now() = %v, want 250ms", got)
	}
	c.AdvanceTo(time.Second)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
}

func TestScheduleFiresAtDeadline(t *testing.T) {
	c := New()
	var firedAt time.Duration
	c.Schedule(100*time.Millisecond, func(now time.Duration) { firedAt = now })

	c.Advance(99 * time.Millisecond)
	if firedAt != 0 {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	c.Advance(1 * time.Millisecond)
	if firedAt != 100*time.Millisecond {
		t.Fatalf("firedAt = %v, want 100ms", firedAt)
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("firing order = %v, want ascending", order)
		}
	}
}

func TestTimestampOrderAcrossDeadlines(t *testing.T) {
	c := New()
	var order []time.Duration
	record := func(now time.Duration) { order = append(order, now) }
	c.Schedule(30*time.Millisecond, record)
	c.Schedule(10*time.Millisecond, record)
	c.Schedule(20*time.Millisecond, record)
	c.Advance(time.Second)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(order) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCallbackSeesDeadlineAsNow(t *testing.T) {
	c := New()
	c.Schedule(42*time.Millisecond, func(now time.Duration) {
		if now != 42*time.Millisecond {
			t.Errorf("callback now = %v, want 42ms", now)
		}
		if c.Now() != now {
			t.Errorf("clock.Now() = %v inside callback, want %v", c.Now(), now)
		}
	})
	c.Advance(time.Second)
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	tm := c.Schedule(10*time.Millisecond, func(time.Duration) { fired = true })
	if !c.Cancel(tm) {
		t.Fatal("Cancel returned false for pending timer")
	}
	if c.Cancel(tm) {
		t.Fatal("second Cancel returned true")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("cancelled timer not reported Stopped")
	}
}

func TestCancelNilAndFired(t *testing.T) {
	c := New()
	if c.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
	tm := c.Schedule(time.Millisecond, func(time.Duration) {})
	c.Advance(time.Millisecond)
	if c.Cancel(tm) {
		t.Fatal("Cancel of fired timer returned true")
	}
}

func TestReschedulingWithinWindow(t *testing.T) {
	// A callback that schedules another timer inside the advance window
	// must see that timer fire during the same AdvanceTo call.
	c := New()
	var fired []time.Duration
	c.Schedule(10*time.Millisecond, func(now time.Duration) {
		fired = append(fired, now)
		c.Schedule(5*time.Millisecond, func(now time.Duration) {
			fired = append(fired, now)
		})
	})
	c.Advance(20 * time.Millisecond)
	if len(fired) != 2 || fired[1] != 15*time.Millisecond {
		t.Fatalf("fired = %v, want [10ms 15ms]", fired)
	}
	if c.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v, want 20ms", c.Now())
	}
}

func TestPeriodicSelfReschedule(t *testing.T) {
	c := New()
	count := 0
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		count++
		c.Schedule(10*time.Millisecond, tick)
	}
	c.Schedule(10*time.Millisecond, tick)
	c.Advance(time.Second)
	if count != 100 {
		t.Fatalf("tick count = %d, want 100", count)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	fired := false
	c.Schedule(-time.Minute, func(now time.Duration) {
		if now != time.Second {
			t.Errorf("fired at %v, want 1s", now)
		}
		fired = true
	})
	c.Advance(0)
	if !fired {
		t.Fatal("past-deadline timer did not fire on zero advance")
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	tm := c.ScheduleAt(100*time.Millisecond, func(time.Duration) {})
	if tm.At() != time.Second {
		t.Fatalf("At() = %v, want clamp to 1s", tm.At())
	}
}

func TestStep(t *testing.T) {
	c := New()
	var fired []time.Duration
	record := func(now time.Duration) { fired = append(fired, now) }
	c.Schedule(5*time.Millisecond, record)
	c.Schedule(10*time.Millisecond, record)
	if !c.Step() {
		t.Fatal("Step returned false with pending timers")
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v after first Step, want 5ms", c.Now())
	}
	if !c.Step() || c.Now() != 10*time.Millisecond {
		t.Fatalf("second Step: now=%v", c.Now())
	}
	if c.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestRunLimit(t *testing.T) {
	c := New()
	count := 0
	var tick func(now time.Duration)
	tick = func(time.Duration) {
		count++
		c.Schedule(time.Millisecond, tick)
	}
	c.Schedule(time.Millisecond, tick)
	fired := c.Run(50)
	if fired != 50 || count != 50 {
		t.Fatalf("Run(50) fired %d (count %d), want 50", fired, count)
	}
}

func TestNextAt(t *testing.T) {
	c := New()
	if _, ok := c.NextAt(); ok {
		t.Fatal("NextAt ok on empty queue")
	}
	c.Schedule(7*time.Millisecond, func(time.Duration) {})
	at, ok := c.NextAt()
	if !ok || at != 7*time.Millisecond {
		t.Fatalf("NextAt = %v,%v want 7ms,true", at, ok)
	}
}

func TestAdvanceToPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c := New()
	c.Advance(time.Second)
	c.AdvanceTo(time.Millisecond)
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := New()
	var fired []int
	timers := make([]*Timer, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers[i] = c.Schedule(time.Duration(i+1)*time.Millisecond, func(time.Duration) {
			fired = append(fired, i)
		})
	}
	c.Cancel(timers[4])
	c.Cancel(timers[7])
	c.Advance(time.Second)
	if len(fired) != 8 {
		t.Fatalf("fired %d timers, want 8: %v", len(fired), fired)
	}
	for _, v := range fired {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled timer %d fired", v)
		}
	}
}

// TestLaneMergesWithHeap pins the merge rule between the same-instant
// lane and the heap: tasks due now go to the lane, timers with handles
// stay on the heap, and the two fire in one (at, seq) order — a
// ScheduleAt or RescheduleAt at the current instant issued after a lane
// task fires after it, one issued before fires before it.
func TestLaneMergesWithHeap(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	var order []string
	rec := func(name string) func(time.Duration) {
		return func(time.Duration) { order = append(order, name) }
	}
	owned := c.NewTimer(rec("reschedule"))
	c.Schedule(time.Millisecond, rec("later"))
	c.ScheduleAt(c.Now(), rec("heap-before"))
	c.ScheduleTask(0, &nameTask{"lane-1", &order})
	c.ScheduleAt(c.Now(), rec("heap-after"))
	c.ScheduleTaskAt(0, &nameTask{"lane-2", &order}) // past deadline clamps to now
	c.RescheduleAt(owned, c.Now())
	c.ScheduleTask(-time.Second, &nameTask{"lane-3", &order})
	if len(c.lane)-c.laneHead != 3 || len(c.queue) != 4 {
		t.Fatalf("lane holds %d, heap %d; want 3 and 4", len(c.lane)-c.laneHead, len(c.queue))
	}
	if n := c.PendingTimers(); n != 7 {
		t.Fatalf("PendingTimers = %d, want 7", n)
	}
	if at, ok := c.NextAt(); !ok || at != time.Second {
		t.Fatalf("NextAt = %v,%v want 1s,true", at, ok)
	}
	if !c.Step() || len(order) != 1 || order[0] != "heap-before" {
		t.Fatalf("first Step fired %v, want [heap-before]", order)
	}
	c.AdvanceTo(c.Now())
	want := []string{"heap-before", "lane-1", "heap-after", "lane-2", "reschedule", "lane-3"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if at, ok := c.NextAt(); !ok || at != time.Second+time.Millisecond || c.PendingTimers() != 1 {
		t.Fatalf("after the instant: NextAt = %v,%v, %d pending; want 1.001s, 1", at, ok, c.PendingTimers())
	}
}

// nameTask is a TimerTask that logs its name on firing.
type nameTask struct {
	name  string
	order *[]string
}

func (n *nameTask) Fire(time.Duration) { *n.order = append(*n.order, n.name) }

// refTimer is the property test's model of one pending timer.
type refTimer struct {
	id  int
	at  time.Duration
	seq uint64
}

// refModel is the property test's reference queue: the pending timers,
// unordered, and the ids fired so far. Every callback checks on firing
// that it is the (at, seq) minimum of the model, so timers scheduled
// from inside callbacks are checked as tightly as top-level ones.
type refModel struct {
	t       *testing.T
	c       *Clock
	rng     *rand.Rand
	seed    int64
	op      int
	pending []refTimer
	fired   []int
	nextID  int
	limit   time.Duration // the running AdvanceTo/Step horizon
	owned   []*Timer
	ownedID map[*Timer]int
	handles map[int]*Timer
}

// add registers a timer about to be scheduled at the (unclamped) at,
// consuming the clock's next sequence number.
func (m *refModel) add(at time.Duration) int {
	at = max(at, m.c.Now())
	r := refTimer{id: m.nextID, at: at, seq: m.c.seq}
	m.nextID++
	m.pending = append(m.pending, r)
	return r.id
}

// min returns the slot of the earliest pending timer, or -1.
func (m *refModel) min() int {
	best := -1
	for i, r := range m.pending {
		if best < 0 || r.at < m.pending[best].at ||
			r.at == m.pending[best].at && r.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

// fire is every timer's callback: it checks id against the model's
// minimum, then sometimes schedules a follow-up — mostly at the same
// instant, on the lane (ScheduleTask) or the heap (ScheduleAt,
// RescheduleAt), which must order after every lane task already due.
func (m *refModel) fire(id int, now time.Duration) {
	m.t.Helper()
	i := m.min()
	if i < 0 || m.pending[i].id != id || m.pending[i].at != now || now > m.limit || m.c.Now() != now {
		m.t.Fatalf("seed %d op %d: timer %d fired at %v (clock %v, limit %v); reference head %v",
			m.seed, m.op, id, now, m.c.Now(), m.limit, m.pending[max(i, 0):min(i+1, len(m.pending))])
	}
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	m.fired = append(m.fired, id)
	if m.rng.Intn(10) < 4 {
		m.schedule(now + time.Duration(m.rng.Intn(8)-6)*time.Millisecond)
	}
}

// schedule issues one random scheduling call at the (unclamped) at.
func (m *refModel) schedule(at time.Duration) {
	switch k := m.rng.Intn(6); {
	case k < 2:
		id := m.add(at)
		m.handles[id] = m.c.ScheduleAt(at, func(now time.Duration) { m.fire(id, now) })
	case k < 4:
		id := m.add(at)
		m.c.ScheduleTaskAt(at, &recordTask{m: m, id: id})
	case k < 5:
		id := m.add(at)
		m.c.ScheduleTask(at-m.c.Now(), &recordTask{m: m, id: id})
	default:
		if len(m.owned) < 8 {
			var tm *Timer
			tm = m.c.NewTimer(func(now time.Duration) { m.fire(m.ownedID[tm], now) })
			m.owned = append(m.owned, tm)
		}
		tm := m.owned[m.rng.Intn(len(m.owned))]
		if tm.index >= 0 {
			return
		}
		m.ownedID[tm] = m.add(at)
		m.c.RescheduleAt(tm, at)
	}
}

// recordTask is a TimerTask that reports its firing to the model.
type recordTask struct {
	m  *refModel
	id int
}

func (r *recordTask) Fire(now time.Duration) { r.m.fire(r.id, now) }

// TestQueueMatchesSortedReference drives random interleavings of
// ScheduleAt, ScheduleTask, ScheduleTaskAt, RescheduleAt, Cancel, Step,
// Run and AdvanceTo, with deadlines on a coarse grid so many timers tie
// on their instant and many land on the current one (the lane), and
// with callbacks that schedule more timers, most at their own instant.
// Every firing must be the (at, seq) minimum of a reference model, and
// after every operation NextAt and PendingTimers must agree with the
// model, each heap timer's index must be its slot, the heap order must
// hold, and the lane must hold only due tasks in sequence order.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		c := New()
		m := &refModel{t: t, c: c, rng: rand.New(rand.NewSource(seed)), seed: seed,
			ownedID: map[*Timer]int{}, handles: map[int]*Timer{}}
		for op := 0; op < 3000; op++ {
			m.op = op
			m.limit = c.Now() // no timer may fire outside Step/Run/AdvanceTo
			before := len(m.fired)
			switch k := m.rng.Intn(12); {
			case k < 6:
				m.schedule(c.Now() + time.Duration(m.rng.Intn(40)-5)*time.Millisecond)
				m.limit = -1
			case k < 7:
				var tm *Timer
				var id int
				if m.rng.Intn(2) == 0 && len(m.owned) > 0 {
					tm = m.owned[m.rng.Intn(len(m.owned))]
					id = m.ownedID[tm]
				} else if m.nextID > 0 {
					id = m.rng.Intn(m.nextID)
					tm = m.handles[id]
				}
				if tm == nil {
					continue
				}
				wasPending := tm.index >= 0
				if got := c.Cancel(tm); got != wasPending {
					t.Fatalf("seed %d op %d: Cancel = %v, timer pending %v", seed, op, got, wasPending)
				}
				if wasPending {
					for i, r := range m.pending {
						if r.id == id {
							m.pending = append(m.pending[:i], m.pending[i+1:]...)
							break
						}
					}
				}
			case k < 8:
				m.limit = time.Duration(math.MaxInt64)
				due := len(m.pending) > 0
				if got := c.Step(); got != due || got != (len(m.fired) == before+1) {
					t.Fatalf("seed %d op %d: Step = %v (%d fired) with due=%v", seed, op, got, len(m.fired)-before, due)
				}
			case k < 9:
				m.limit = time.Duration(math.MaxInt64)
				n := 1 + m.rng.Intn(4)
				if got := c.Run(n); got != len(m.fired)-before || got > n || got < n && len(m.pending) > 0 {
					t.Fatalf("seed %d op %d: Run(%d) = %d, %d fired, %d pending", seed, op, n, got, len(m.fired)-before, len(m.pending))
				}
			default:
				to := c.Now() + time.Duration(m.rng.Intn(20))*time.Millisecond
				m.limit = to
				c.AdvanceTo(to)
				if i := m.min(); c.Now() != to || i >= 0 && m.pending[i].at <= to {
					t.Fatalf("seed %d op %d: AdvanceTo(%v) left now=%v with %v due", seed, op, to, c.Now(), m.pending)
				}
			}
			if m.limit < 0 && len(m.fired) != before {
				t.Fatalf("seed %d op %d: scheduling fired a timer synchronously", seed, op)
			}
			checkHeap(t, seed, op, c, len(m.pending))
			at, ok := c.NextAt()
			if i := m.min(); ok != (i >= 0) || ok && at != m.pending[i].at {
				t.Fatalf("seed %d op %d: NextAt = %v,%v; reference %v", seed, op, at, ok, m.pending)
			}
		}
	}
}

// checkHeap asserts the queues' structural invariants: size (heap plus
// lane), every heap timer's index equal to its slot, no child earlier
// than its parent, and a lane of tasks due now in sequence order.
func checkHeap(t *testing.T, seed int64, op int, c *Clock, n int) {
	t.Helper()
	if got := len(c.queue) + len(c.lane) - c.laneHead; got != n || c.PendingTimers() != n {
		t.Fatalf("seed %d op %d: %d timers queued (PendingTimers %d), reference has %d", seed, op, got, c.PendingTimers(), n)
	}
	for i, tm := range c.queue {
		if tm.index != i {
			t.Fatalf("seed %d op %d: timer in slot %d has index %d", seed, op, i, tm.index)
		}
		if i > 0 && c.queue.less(i, (i-1)/2) {
			t.Fatalf("seed %d op %d: slot %d precedes its parent", seed, op, i)
		}
	}
	for i, e := range c.lane[c.laneHead:] {
		if e.at != c.Now() || e.task == nil || i > 0 && e.seq <= c.lane[c.laneHead+i-1].seq {
			t.Fatalf("seed %d op %d: lane entry %d = %+v at clock %v", seed, op, i, e, c.Now())
		}
	}
}
