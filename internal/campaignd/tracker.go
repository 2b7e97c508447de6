package campaignd

import "fmt"

// cellState is the lifecycle of one plan cell on the coordinator.
//
//	pending --next()--> leased --complete()--> done
//	   ^                  |
//	   +----release()-----+ (worker connection lost; retries++, bounded)
//
// complete() accepts a result from ANY state except done, and the first
// write wins: the cell's seed makes every execution identical, so every
// later result for the same cell is a counted duplicate, and re-leased
// or re-executed cells can never double-count in the aggregation (see
// TestLeaseRequeueNeverDoubleCounts).
type cellState uint8

const (
	statePending cellState = iota
	stateLeased
	stateDone
)

// tracker is the coordinator's cell state machine. It is purely
// deterministic, so the lease semantics are property-testable without
// a network or a clock. Not safe for concurrent use; the coordinator
// event loop owns it.
type tracker struct {
	states     []cellState
	holders    []string // worker key holding each leased cell
	retries    []int
	queue      []int // pending cells, FIFO; may contain stale (done) entries
	doneCount  int
	maxRetries int
}

func newTracker(cells, maxRetries int) *tracker {
	t := &tracker{
		states:     make([]cellState, cells),
		holders:    make([]string, cells),
		retries:    make([]int, cells),
		queue:      make([]int, 0, cells),
		maxRetries: maxRetries,
	}
	for i := 0; i < cells; i++ {
		t.queue = append(t.queue, i)
	}
	return t
}

// restore marks a cell done during journal replay. Idempotent.
func (t *tracker) restore(cell int) {
	if t.states[cell] == stateDone {
		return
	}
	t.states[cell] = stateDone
	t.doneCount++
}

// next pops the lowest pending cell and leases it to worker. ok=false
// when nothing is pending (cells may still be in flight elsewhere).
func (t *tracker) next(worker string) (int, bool) {
	for len(t.queue) > 0 {
		cell := t.queue[0]
		t.queue = t.queue[1:]
		if t.states[cell] != statePending {
			continue // completed (late result) or re-leased while queued
		}
		t.states[cell] = stateLeased
		t.holders[cell] = worker
		return cell, true
	}
	return 0, false
}

// complete records a result for cell. First write wins: it returns
// true exactly once per cell, regardless of how many workers deliver
// the (identical, seed-determined) result or what state the lease is
// in. A false return is a duplicate the caller counts and drops.
func (t *tracker) complete(cell int) bool {
	if t.states[cell] == stateDone {
		return false
	}
	t.states[cell] = stateDone
	t.holders[cell] = ""
	t.doneCount++
	return true
}

// release revokes every lease held by worker (connection lost) and
// requeues the cells at the back of the queue. It returns the requeued
// cells, or an error once a cell has been requeued more than maxRetries
// times — a cell that keeps taking its workers down with it is a poison
// cell, and the campaign must abort rather than spin.
func (t *tracker) release(worker string) ([]int, error) {
	var out []int
	for i := range t.holders {
		if t.states[i] != stateLeased || t.holders[i] != worker {
			continue
		}
		out = append(out, i)
		t.states[i] = statePending
		t.holders[i] = ""
		t.queue = append(t.queue, i)
		t.retries[i]++
		if t.retries[i] > t.maxRetries {
			return out, fmt.Errorf("campaignd: cell %d requeued %d times (max %d) — aborting campaign", i, t.retries[i], t.maxRetries)
		}
	}
	return out, nil
}

// done reports whether every cell has a result.
func (t *tracker) done() bool { return t.doneCount == len(t.states) }

// pending reports whether any cell is waiting for a lease.
func (t *tracker) pending() bool {
	for _, cell := range t.queue {
		if t.states[cell] == statePending {
			return true
		}
	}
	return false
}
