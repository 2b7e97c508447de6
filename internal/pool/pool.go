// Package pool runs independent jobs on a bounded set of workers: the
// one pool behind campaign cells, validity sweep points and hub batch
// sessions.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(worker, i) for every i in [0, n) on workers goroutines,
// clamped to [1, n]; worker is in [0, workers) and lets fn keep
// per-worker state. Jobs start in index order. After the first error
// no new job starts, and Run returns the lowest failing index with its
// error — deterministic even when several jobs fail concurrently,
// because every lower index has already started. On success it returns
// -1, nil.
func Run(n, workers int, fn func(worker, i int) error) (int, error) {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
