package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once and its result lands in its own slot.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 2}, {7, 0}, {1000, 3}, {1000, -1},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			calls := make([]atomic.Int32, tc.n)
			out := make([]int, tc.n)
			err := ForEach(tc.n, tc.workers, func(i int) error {
				calls[i].Add(1)
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times, want 1", i, c)
				}
				if out[i] != i*i {
					t.Errorf("out[%d] = %d, want %d", i, out[i], i*i)
				}
			}
		})
	}
}

func TestForEachZeroNeverCalls(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 8} {
		err := ForEach(0, workers, func(i int) error {
			t.Errorf("workers=%d: fn(%d) called with n == 0", workers, i)
			return nil
		})
		if err != nil {
			t.Errorf("workers=%d: err = %v, want nil", workers, err)
		}
	}
}

// No more than min(workers, n) calls run at once (workers <= 0 meaning
// GOMAXPROCS).
func TestForEachBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		for _, n := range []int{0, 1, 5, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				limit := workers
				if limit <= 0 {
					limit = runtime.GOMAXPROCS(0)
				}
				limit = min(limit, n)
				var cur, peak atomic.Int32
				err := ForEach(n, workers, func(int) error {
					c := cur.Add(1)
					for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
					}
					runtime.Gosched()
					cur.Add(-1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if p := int(peak.Load()); p > limit {
					t.Errorf("peak concurrency %d exceeds min(workers, n) = %d", p, limit)
				}
			})
		}
	}
}

// With failures at several indices, the lowest failing index's error
// comes back unwrapped, whichever failure happens first in time.
func TestForEachReturnsLowestFailingIndex(t *testing.T) {
	errs := map[int]error{
		3:  errors.New("fail 3"),
		5:  errors.New("fail 5"),
		12: errors.New("fail 12"),
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := ForEach(20, workers, func(i int) error {
				if i == 3 {
					// Let the higher failures land first when workers > 1.
					time.Sleep(5 * time.Millisecond)
				}
				return errs[i]
			})
			if err != errs[3] {
				t.Fatalf("err = %v, want %v", err, errs[3])
			}
		})
	}
}

// Once the failure is recorded no further index starts. Each of the
// first workers-1 indices blocks until released, so the only worker
// free to take more is the failing one (index workers-1); it must stop
// instead. The test waits for that worker to exit before releasing the
// others, so the error is recorded before any of them asks for more.
func TestForEachStopsAfterFailure(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fail := workers - 1
			boom := errors.New("boom")
			release := make(chan struct{})
			failed := make(chan int) // the goroutine count while the failing call runs
			var starts, maxStarted atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- ForEach(n, workers, func(i int) error {
					starts.Add(1)
					for m := maxStarted.Load(); int32(i) > m && !maxStarted.CompareAndSwap(m, int32(i)); m = maxStarted.Load() {
					}
					if i == fail {
						failed <- runtime.NumGoroutine()
						return boom
					}
					<-release
					return nil
				})
			}()
			alive := <-failed
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() >= alive && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(release)
			if err := <-done; err != boom {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if s, m := starts.Load(), maxStarted.Load(); s != int32(workers) || m != int32(fail) {
				t.Errorf("%d starts up to index %d, want %d up to %d (no index after the failure)",
					s, m, workers, fail)
			}
		})
	}
}

// The pool is safe to nest: study stages run campaigns that run their
// own pools.
func TestForEachNested(t *testing.T) {
	var mu sync.Mutex
	total := 0
	err := ForEach(4, 2, func(i int) error {
		return ForEach(10, 3, func(j int) error {
			mu.Lock()
			total += i*10 + j
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 39 * 40 / 2; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}
