package nn

import (
	"runtime"
	"sync"
)

// parallelWorkThreshold is the per-call element count below which
// per-sample loops (im2col/col2im/scatter, tiled inference) run
// single-threaded: under it, goroutine startup costs more than the work.
const parallelWorkThreshold = 1 << 14

// parallelSamples runs f over [0, n) batch samples, fanning contiguous
// sample ranges across GOMAXPROCS workers when the total element count
// makes it worthwhile. Each sample's work must touch disjoint memory.
// A panic in any worker is re-raised on the calling goroutine once all
// workers have finished, so callers' recovers see it whether or not the
// work fanned out.
func parallelSamples(n, elems int, f func(s0, s1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if elems < parallelWorkThreshold || workers <= 1 || n <= 1 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var (
		wg       sync.WaitGroup
		panicked sync.Once
		pval     any
	)
	for w := 0; w < workers; w++ {
		s0 := w * chunk
		s1 := s0 + chunk
		if s1 > n {
			s1 = n
		}
		if s0 >= s1 {
			break
		}
		wg.Add(1)
		go func(s0, s1 int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Do(func() { pval = r })
				}
			}()
			f(s0, s1)
		}(s0, s1)
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
