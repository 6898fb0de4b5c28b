package qbp

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base (plus the runtime's own background workers already counted in base).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertNoGoroutineLeak snapshots the goroutine count and fails the test at
// cleanup when it has not settled back — the runtime leak guard for the
// multistart drain and the worker pool.
func assertNoGoroutineLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitGoroutines(t, base) })
}

// multiStartBound caps every SolveMultiStart call of this package's tests.
// The slowest call, TestMultiStartCancelMidSolve's, took 71–81 s under
// -race on a 2-vCPU VM (under 5 s without); every other call returns within
// 0.3 s. The bound only trips when the workers never drain (a lost
// close(jobs) or wg.Done): the test then fails with every goroutine's stack
// instead of hanging until go test's -timeout.
const multiStartBound = 5 * time.Minute

// multiStartHung records that a bounded call timed out. Its workers stay
// parked, so every later call fails at once instead of waiting out the
// bound again.
var multiStartHung atomic.Bool

// solveMultiStart is SolveMultiStart under multiStartBound.
func solveMultiStart(t *testing.T, ctx context.Context, p *model.Problem, opts MultiStartOptions) (*Result, error) {
	t.Helper()
	if multiStartHung.Load() {
		t.Fatal("SolveMultiStart not called: an earlier call did not return within the bound")
	}
	type outcome struct {
		r   *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := SolveMultiStart(ctx, p, opts)
		done <- outcome{r, err}
	}()
	timer := time.NewTimer(multiStartBound)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.r, o.err
	case <-timer.C:
		multiStartHung.Store(true)
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("SolveMultiStart did not return within %v; goroutines:\n%s", multiStartBound, buf)
		return nil, nil
	}
}
