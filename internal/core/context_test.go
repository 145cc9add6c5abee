package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"specwise/internal/sched"
)

func TestVerifyMCContextCancel(t *testing.T) {
	p := analyticProblem()
	thetas := [][]float64{{0}, {0}}

	// Pre-cancelled context: the pool must not run a single sample.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyMCContext(ctx, p, p.InitialDesign(), thetas, 100, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Mid-run cancellation: slow evaluations, the first of which cancels.
	// Every worker may finish the sample it already started, but no new
	// sample may begin: the call count stays far below n.
	const n = 100000
	ctx2, cancel2 := context.WithCancel(context.Background())
	var calls atomic.Int64
	slow := *p
	slow.Eval = func(d, s, th []float64) ([]float64, error) {
		calls.Add(1)
		cancel2()
		time.Sleep(200 * time.Microsecond)
		return p.Eval(d, s, th)
	}
	before := runtime.NumGoroutine()
	if _, err := VerifyMCContext(ctx2, &slow, p.InitialDesign(), thetas, n, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, limit := calls.Load(), int64(sched.Default().Workers(n)*len(thetas)); got > limit {
		t.Fatalf("%d evaluations ran after cancelling on the first, want at most %d (one sample per worker)", got, limit)
	}
	// Workers and feeder must all have exited; allow the scheduler a
	// moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// The run-cancellation and Progress-hook tests live in feasguided_test.go,
// beside the backend that owns the loop they exercise.
