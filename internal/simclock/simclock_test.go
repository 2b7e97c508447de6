package simclock

import (
	"math"
	"math/rand"
	"sort"
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

// refTimer is the property test's model of one pending timer.
type refTimer struct {
	id  int
	at  time.Duration
	seq uint64
}

// recordTask is a TimerTask that logs its id on firing.
type recordTask struct {
	id    int
	fired *[]int
}

func (r *recordTask) Fire(time.Duration) { *r.fired = append(*r.fired, r.id) }

// TestQueueMatchesSortedReference drives random interleavings of
// ScheduleAt, ScheduleTaskAt, RescheduleAt, Cancel, Step and
// AdvanceTo, with deadlines on a coarse grid so many timers tie on
// their instant. The fire order must equal a (at, seq)-sorted
// reference, and after every operation each queued timer's index must
// be its slot and the heap order must hold.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var fired []int
		var pending []refTimer // the reference queue, unordered
		handles := map[int]*Timer{}
		var owned []*Timer
		ownedID := map[*Timer]int{}
		nextID := 0
		schedule := func(at time.Duration) refTimer {
			if at < c.Now() {
				at = c.Now()
			}
			r := refTimer{id: nextID, at: at, seq: c.seq}
			nextID++
			pending = append(pending, r)
			return r
		}
		// fireUpTo moves the reference: every pending timer at or before
		// limit fires, in (at, seq) order; n caps the count (Step).
		fireUpTo := func(limit time.Duration, n int) []int {
			sort.Slice(pending, func(i, j int) bool {
				if pending[i].at != pending[j].at {
					return pending[i].at < pending[j].at
				}
				return pending[i].seq < pending[j].seq
			})
			var want []int
			for len(pending) > 0 && pending[0].at <= limit && len(want) < n {
				want = append(want, pending[0].id)
				pending = pending[1:]
			}
			return want
		}
		for op := 0; op < 3000; op++ {
			at := c.Now() + time.Duration(rng.Intn(40)-5)*time.Millisecond
			switch k := rng.Intn(10); {
			case k < 3:
				r := schedule(at)
				id := r.id
				handles[id] = c.ScheduleAt(at, func(time.Duration) { fired = append(fired, id) })
			case k < 5:
				r := schedule(at)
				c.ScheduleTaskAt(at, &recordTask{id: r.id, fired: &fired})
			case k < 6:
				if len(owned) < 8 {
					var tm *Timer
					tm = c.NewTimer(func(time.Duration) { fired = append(fired, ownedID[tm]) })
					owned = append(owned, tm)
				}
				tm := owned[rng.Intn(len(owned))]
				if tm.index >= 0 {
					continue
				}
				r := schedule(at)
				ownedID[tm] = r.id
				c.RescheduleAt(tm, at)
			case k < 7:
				var tm *Timer
				var id int
				if rng.Intn(2) == 0 && len(owned) > 0 {
					tm = owned[rng.Intn(len(owned))]
					id = ownedID[tm]
				} else if nextID > 0 {
					id = rng.Intn(nextID)
					tm = handles[id]
				}
				if tm == nil {
					continue
				}
				wasPending := tm.index >= 0
				if got := c.Cancel(tm); got != wasPending {
					t.Fatalf("seed %d op %d: Cancel = %v, timer pending %v", seed, op, got, wasPending)
				}
				if wasPending {
					for i, r := range pending {
						if r.id == id {
							pending = append(pending[:i], pending[i+1:]...)
							break
						}
					}
				}
			case k < 8:
				fired = fired[:0]
				want := fireUpTo(time.Duration(math.MaxInt64), 1)
				if got := c.Step(); got != (len(want) == 1) {
					t.Fatalf("seed %d op %d: Step = %v with %d due", seed, op, got, len(want))
				}
				checkFired(t, seed, op, fired, want)
			default:
				fired = fired[:0]
				to := c.Now() + time.Duration(rng.Intn(20))*time.Millisecond
				want := fireUpTo(to, math.MaxInt)
				c.AdvanceTo(to)
				checkFired(t, seed, op, fired, want)
			}
			checkHeap(t, seed, op, c, len(pending))
		}
	}
}

func checkFired(t *testing.T, seed int64, op int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d op %d: fired %v, want %v", seed, op, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d op %d: fired %v, want %v", seed, op, got, want)
		}
	}
}

// checkHeap asserts the queue's structural invariants: size, every
// timer's index equal to its slot, and no child earlier than its parent.
func checkHeap(t *testing.T, seed int64, op int, c *Clock, n int) {
	t.Helper()
	if len(c.queue) != n {
		t.Fatalf("seed %d op %d: %d timers queued, reference has %d", seed, op, len(c.queue), n)
	}
	for i, tm := range c.queue {
		if tm.index != i {
			t.Fatalf("seed %d op %d: timer in slot %d has index %d", seed, op, i, tm.index)
		}
		if i > 0 && c.queue.less(i, (i-1)/2) {
			t.Fatalf("seed %d op %d: slot %d precedes its parent", seed, op, i)
		}
	}
}
