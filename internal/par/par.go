// Package par runs index-addressed work on one bounded pool of
// goroutines. Every campaign in the repository (beam strikes, injection
// plans, two-level samples, study stages, daemon rounds) is a list of
// independent trials whose results land in a slice by index, so the
// outcome never depends on how many workers ran them.
package par

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on at most min(workers, n)
// goroutines; workers <= 0 means runtime.GOMAXPROCS(0).
//
// Indices are handed out in increasing order and none is handed out
// after a call has failed, so every index below a failing one has
// already started. ForEach returns the error of the lowest failing
// index, unchanged, which makes the returned error the same for any
// worker count. It adds no text to the error: callers wrap inside fn.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   int
		errIdx = n
		err    error
	)
	// take hands out the next index, or reports that the pool is done:
	// every index is out, or some call has failed.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if e := fn(i); e != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, err = i, e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return err
}
