// Package pool runs index-addressed work on a fixed set of goroutines: the
// fleet, the policy and verifier sweeps and the experiments fan out
// through it. Each caller writes result i to its own index i, so
// scheduling decides only which goroutine computes an index, never what
// lands there, and results are identical at any worker count.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the pool size for n work items: want, or GOMAXPROCS when want
// is not positive, capped at n.
func Workers(want, n int) int {
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	return min(want, n)
}

// Run starts Workers(workers, n) goroutines, each calling worker once, and
// returns when all of them have returned. The shared next hands out the
// indices 0..n-1 once each, in increasing order, and then reports false on
// every call. A worker that returns early leaves its unclaimed indices to
// the others.
func Run(n, workers int, worker func(next func() (int, bool))) {
	var ctr atomic.Int64
	next := func() (int, bool) {
		if i := ctr.Add(1) - 1; i < int64(n) {
			return int(i), true
		}
		return 0, false
	}
	var wg sync.WaitGroup
	for w := Workers(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
}
