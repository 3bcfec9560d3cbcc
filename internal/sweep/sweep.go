// Package sweep is the simulator's parallelism boundary: a small
// worker pool that runs many *independent* simulations concurrently
// while every simulation itself stays single-threaded and
// deterministic.
//
// The contract that keeps batch results byte-identical to a serial
// loop: each job owns its index and writes only state reachable from
// that index (its slot in a results slice), jobs never communicate,
// and callers assemble output in input order after Run returns.  Only
// the *scheduling* of jobs onto OS threads is nondeterministic, and no
// simulation result can observe it.
//
// This package is the one simulator package permitted to use
// goroutines and the sync package; the determinism analyzer in
// internal/lint grants it an explicit concurrency allowlist entry (see
// lint.ConcurrencyAllowed) rather than a blanket suppression, so its
// other determinism rules (no wall-clock reads, no global RNG, no
// map-order dependence) still apply here.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes job(0) … job(n-1) across min(workers, n) goroutines and
// returns when all have finished.  workers <= 0 selects GOMAXPROCS.
// Jobs are handed out in index order from a shared counter, but may
// complete in any order; with workers == 1 (or n <= 1) the jobs run
// serially on the calling goroutine, which is also the fallback
// callers can use to bisect any suspected isolation bug.
func Run(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Workers resolves a worker-count option: workers <= 0 selects
// GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Serial wraps f so that concurrent callers take turns: the wrapped
// function is never running on two goroutines at once, so f itself
// need not be safe for concurrent use.  A nil f stays nil.
func Serial(f func() error) func() error {
	if f == nil {
		return nil
	}
	var mu sync.Mutex
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		return f()
	}
}

// Stream runs a sequential producer against a pool of consumers through
// a fixed ring of slots.  produce(s) runs on the calling goroutine,
// fills slot s with the next item and reports whether it produced one
// (false ends the stream, leaving s unused); consume(s) then processes
// that item on one of the pool's goroutines.  A slot returns to the
// producer only after its consume has returned, so at most `slots`
// items exist at once and a caller can keep one reusable buffer per
// slot.  slots <= 0 selects GOMAXPROCS; with one slot, production and
// consumption alternate on the calling goroutine.
//
// The same contract as Run keeps results independent of scheduling:
// the producer alone decides what each item is, and each consume
// writes only state reachable from its own item.
func Stream(slots int, produce func(slot int) bool, consume func(slot int)) {
	slots = Workers(slots)
	if slots == 1 {
		for produce(0) {
			consume(0)
		}
		return
	}
	// Both channels hold slot ids, and only `slots` ids exist, so
	// neither a worker's return of a slot nor a hand-off ever blocks.
	free := make(chan int, slots)
	work := make(chan int, slots)
	for s := 0; s < slots; s++ {
		free <- s
	}
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				consume(s)
				free <- s
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for {
		s := <-free
		if !produce(s) {
			return
		}
		work <- s
	}
}
