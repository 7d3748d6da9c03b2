package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment grids — figure sweeps, the benchmark tables, the
// ablations, the SPO remount sweep — are embarrassingly parallel: every
// cell builds its own clock, device, FTL and RNG, shares nothing with its
// neighbours, and produces a deterministic result. The pool below fans the
// cells out over a bounded set of workers while collecting results in cell
// order, so the rendered tables are byte-identical to a serial pass (the
// contract TestParallelMatchesSerial locks in). FTL internals stay
// single-threaded by design; parallelism lives strictly between runs.

// workersOverride, when positive, pins the fan-out width; see SetWorkers.
var workersOverride atomic.Int32

// SetWorkers pins the number of concurrent experiment runs (1 reproduces
// the serial path's wall-clock behaviour exactly). n <= 0 restores the
// default, GOMAXPROCS.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workersOverride.Store(int32(n))
}

// Workers returns the current fan-out width for experiment grids.
func Workers() int {
	if n := workersOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n) on up to Workers() goroutines.
// Callers get determinism by writing results into slot i of a preallocated
// slice; forEach itself guarantees the returned error is the one the
// lowest-index failing cell produced — exactly what a serial loop that
// stops at the first failure would report — regardless of completion order.
func forEach(n int, fn func(i int) error) error {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = int64(n)
		firstErr error
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				// Cells past an already-failed index still run (their
				// results are discarded with the error); cells are cheap
				// relative to the bookkeeping a cancellation protocol
				// would add, and error paths are rare.
				if err := fn(int(i)); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
