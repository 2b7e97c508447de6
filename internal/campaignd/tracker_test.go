package campaignd

import (
	"math/rand"
	"testing"
)

func TestTrackerLeaseLifecycle(t *testing.T) {
	tr := newTracker(3, 5)
	cell, ok := tr.next("a")
	if !ok || cell != 0 {
		t.Fatalf("first lease: got (%d,%v), want (0,true)", cell, ok)
	}
	if !tr.complete(0) {
		t.Fatal("first complete must win")
	}
	if tr.complete(0) {
		t.Fatal("second complete of the same cell must be a duplicate")
	}
	if tr.done() {
		t.Fatal("done with 2 cells outstanding")
	}
	for i := 0; i < 2; i++ {
		cell, ok := tr.next("a")
		if !ok {
			t.Fatalf("lease %d: queue empty", i)
		}
		tr.complete(cell)
	}
	if !tr.done() {
		t.Fatal("all complete, tracker not done")
	}
	if _, ok := tr.next("a"); ok {
		t.Fatal("lease after done")
	}
}

func TestTrackerReleaseOnWorkerDeath(t *testing.T) {
	tr := newTracker(4, 5)
	tr.next("a")
	tr.next("b")
	tr.next("a")
	requeued, err := tr.release("a")
	if err != nil || len(requeued) != 2 {
		t.Fatalf("release: %v %v", requeued, err)
	}
	// b's lease must be untouched; the two re-queued cells plus cell 3
	// are leasable.
	for i := 0; i < 3; i++ {
		if _, ok := tr.next("c"); !ok {
			t.Fatalf("re-queued lease %d missing", i)
		}
	}
	if _, ok := tr.next("c"); ok {
		t.Fatal("leased more cells than exist")
	}
}

func TestTrackerBoundedRetries(t *testing.T) {
	tr := newTracker(1, 2)
	for attempt := 0; ; attempt++ {
		if _, ok := tr.next("a"); !ok {
			t.Fatal("no lease")
		}
		_, err := tr.release("a")
		if err != nil {
			if attempt != 2 {
				t.Fatalf("aborted on requeue %d, want the 3rd (maxRetries=2)", attempt+1)
			}
			return
		}
		if attempt > 5 {
			t.Fatal("retries never bounded")
		}
	}
}

// TestLeaseRequeueNeverDoubleCounts is the scripted property: worker
// a's lease is released, the cell is re-leased to worker b, and BOTH
// deliver the (identical, seed-determined) result — a after its lease
// was revoked. Exactly one write wins, deterministically the first.
func TestLeaseRequeueNeverDoubleCounts(t *testing.T) {
	tr := newTracker(1, 5)
	cell, _ := tr.next("a")
	if requeued, _ := tr.release("a"); len(requeued) != 1 {
		t.Fatal("lease was not released")
	}
	if c2, ok := tr.next("b"); !ok || c2 != cell {
		t.Fatalf("re-lease gave cell %d, want %d", c2, cell)
	}
	// Late result from a (lease long revoked) arrives first: it wins.
	if !tr.complete(cell) {
		t.Fatal("late result from a released lease must still count (first write)")
	}
	// b's result for the same cell is a duplicate.
	if tr.complete(cell) {
		t.Fatal("second result double-counted the cell")
	}
	if tr.doneCount != 1 {
		t.Fatalf("doneCount = %d, want 1", tr.doneCount)
	}
}

// TestTrackerCompletionPropertyRandomized drives the tracker through
// randomized lease/release/complete storms and checks
// the aggregation invariants the distributed equivalence rests on:
// complete() returns true exactly once per cell, doneCount equals the
// number of distinct completed cells, and no cell is ever lost (every
// campaign with bounded chaos finishes).
func TestTrackerCompletionPropertyRandomized(t *testing.T) {
	workers := []string{"a", "b", "c"}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := 1 + rng.Intn(12)
		tr := newTracker(cells, 1<<30) // unbounded retries: chaos must never lose a cell
		wins := make([]int, cells)
		leased := make(map[int]bool)

		for step := 0; step < 400 && !tr.done(); step++ {
			switch rng.Intn(4) {
			case 0: // lease to a random worker
				w := workers[rng.Intn(len(workers))]
				if cell, ok := tr.next(w); ok {
					leased[cell] = true
				}
			case 1: // a leased (or stale) cell delivers its result
				for cell := range leased {
					if tr.complete(cell) {
						wins[cell]++
					}
					delete(leased, cell)
					break
				}
			case 2: // duplicate delivery for a random cell
				cell := rng.Intn(cells)
				if tr.complete(cell) {
					wins[cell]++
				}
			case 3: // a worker dies
				if _, err := tr.release(workers[rng.Intn(len(workers))]); err != nil {
					t.Fatalf("seed %d: release errored: %v", seed, err)
				}
			}
		}
		// Drain: complete everything still outstanding.
		for cell := 0; cell < cells; cell++ {
			if tr.complete(cell) {
				wins[cell]++
			}
		}
		if !tr.done() {
			t.Fatalf("seed %d: tracker never completed", seed)
		}
		if tr.doneCount != cells {
			t.Fatalf("seed %d: doneCount %d, want %d", seed, tr.doneCount, cells)
		}
		for cell, n := range wins {
			if n != 1 {
				t.Fatalf("seed %d: cell %d won %d times, want exactly 1", seed, cell, n)
			}
		}
	}
}
