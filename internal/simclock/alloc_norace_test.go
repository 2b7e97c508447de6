//go:build !race

package simclock

import (
	"testing"
	"time"
)

// countTask is a TimerTask that counts its firings.
type countTask struct{ n int }

func (c *countTask) Fire(time.Duration) { c.n++ }

// TestSameInstantTaskAllocs pins the lane's round trip: a zero-delay
// ScheduleTask fired by the next AdvanceTo allocates nothing once the
// lane has grown to its working size, with a heap timer pending beside
// it as in a drive.
func TestSameInstantTaskAllocs(t *testing.T) {
	c := New()
	c.Schedule(time.Hour, func(time.Duration) {})
	task := &countTask{}
	roundTrip := func() {
		c.ScheduleTask(0, task)
		c.ScheduleTask(0, task)
		c.AdvanceTo(c.Now() + time.Microsecond)
	}
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("zero-delay ScheduleTask round trip allocates %v objects, want 0", n)
	}
	// One warm-up call, AllocsPerRun's own warm-up, and 100 measured.
	if task.n != 2*102 {
		t.Fatalf("tasks fired %d times, want %d", task.n, 2*102)
	}
}
