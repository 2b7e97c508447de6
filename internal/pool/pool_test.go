package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunEveryJobOnceWithinWorkerBound(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantWorkers int }{
		{10, 3, 3}, {10, 0, 1}, {10, -2, 1}, {3, 8, 3}, {1, 1, 1}, {0, 4, 0},
	} {
		t.Run(fmt.Sprintf("n%d_w%d", tc.n, tc.workers), func(t *testing.T) {
			var mu sync.Mutex
			seen := make([]int, tc.n)
			used := map[int]bool{}
			idx, err := Run(tc.n, tc.workers, func(w, i int) error {
				mu.Lock()
				defer mu.Unlock()
				seen[i]++
				used[w] = true
				return nil
			})
			if idx != -1 || err != nil {
				t.Fatalf("Run = %d, %v", idx, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("job %d ran %d times", i, c)
				}
			}
			for w := range used {
				if w < 0 || w >= max(tc.wantWorkers, 1) {
					t.Fatalf("worker %d outside [0, %d)", w, tc.wantWorkers)
				}
			}
		})
	}
}

func TestRunReturnsLowestFailureAndStopsStarting(t *testing.T) {
	boom := errors.New("boom")
	// One worker: jobs run in order, so nothing after the first failure
	// starts.
	var started atomic.Int64
	idx, err := Run(100, 1, func(_, i int) error {
		started.Add(1)
		if i == 7 || i == 9 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if idx != 7 || !errors.Is(err, boom) {
		t.Fatalf("Run = %d, %v; want 7, boom", idx, err)
	}
	if got := started.Load(); got != 8 {
		t.Fatalf("%d jobs started, want 8", got)
	}

	// Many workers: a later job may fail first, but every lower index
	// has started, so the lowest failure is still the one reported.
	for round := 0; round < 20; round++ {
		idx, err := Run(64, 8, func(_, i int) error {
			if i == 5 || i == 40 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if idx != 5 || err == nil || err.Error() != "job 5" {
			t.Fatalf("round %d: Run = %d, %v; want 5", round, idx, err)
		}
	}
}
