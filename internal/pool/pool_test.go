package pool

import (
	"runtime"
	"sync"
	"testing"
)

// TestRunHandsOutEachIndexOnce: at every pool size, including sizes
// above n and the GOMAXPROCS defaults, each index in 0..n-1 is handed out
// exactly once (in increasing order to a lone worker), and next keeps
// reporting false once they are gone.
func TestRunHandsOutEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, workers := range []int{-1, 0, 1, 3, n + 3} {
			var mu sync.Mutex
			seen := make([]int, n)
			var order []int
			Run(n, workers, func(next func() (int, bool)) {
				for {
					i, ok := next()
					if !ok {
						break
					}
					mu.Lock()
					seen[i]++
					order = append(order, i)
					mu.Unlock()
				}
				for k := 0; k < 3; k++ {
					if i, ok := next(); ok {
						t.Errorf("n=%d workers=%d: next handed out %d after reporting false", n, workers, i)
					}
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d handed out %d times", n, workers, i, c)
				}
			}
			if workers == 1 {
				for k, i := range order {
					if i != k {
						t.Fatalf("n=%d, one worker: handout %d was index %d, want increasing order", n, k, i)
					}
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 5, 64} {
		if got := Workers(0, n); got != min(procs, n) {
			t.Errorf("Workers(0, %d) = %d, want min(GOMAXPROCS=%d, %d)", n, got, procs, n)
		}
		if got := Workers(-1, n); got != min(procs, n) {
			t.Errorf("Workers(-1, %d) = %d, want %d", n, got, min(procs, n))
		}
		if got := Workers(n+3, n); got != n {
			t.Errorf("Workers(%d, %d) = %d, want %d", n+3, n, got, n)
		}
	}
}
