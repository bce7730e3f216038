package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"physdep/internal/physerr"
)

// TestCtxPreCanceledReturnsPromptly: a context canceled before the call
// runs zero tasks and returns an error matching both physerr.ErrCanceled
// (the repo's classification) and context.Canceled (the cause).
func TestCtxPreCanceledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		var ran atomic.Int64
		err := ForCtx(ctx, 1000, func(i int) error {
			ran.Add(1)
			return nil
		})
		SetWorkers(0)
		if err == nil {
			t.Fatalf("workers=%d: ForCtx on canceled ctx returned nil", workers)
		}
		if !errors.Is(err, physerr.ErrCanceled) {
			t.Errorf("workers=%d: error %v does not match physerr.ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error %v does not match context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d tasks ran under a pre-canceled context, want 0", workers, ran.Load())
		}
	}
}

// TestCtxDeadlineClassified: a deadline expiry classifies the same way
// as an explicit cancel but keeps context.DeadlineExceeded reachable
// through errors.Is.
func TestCtxDeadlineClassified(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	err := ForCtx(ctx, 10, func(i int) error { return nil })
	if !errors.Is(err, physerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error %v must match ErrCanceled and DeadlineExceeded", err)
	}
}

// TestCtxLiveUncanceledMatchesBackground is the §6 contract extended to
// cancellation: a live cancellable context that never fires (the polling
// path) must produce results byte-identical to context.Background() (the
// no-poll path, whose Done channel is nil), at any worker count.
func TestCtxLiveUncanceledMatchesBackground(t *testing.T) {
	want, err := MapCtx(context.Background(), 64, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		got, err := MapCtx(ctx, 64, func(i int) (int, error) { return i * i, nil })
		cancel()
		SetWorkers(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCtxMidRunCancelStopsHandOut: canceling while tasks are in flight
// stops further hand-out — far fewer than n tasks run — and the call
// reports the cancellation.
func TestCtxMidRunCancelStopsHandOut(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100000
	var ran atomic.Int64
	err := ForCtx(ctx, n, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("mid-run cancel returned %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d tasks ran despite cancellation", got)
	}
}

// TestCtxCancelDoesNotMaskTaskError: a real task failure at a lower
// index wins over a cancellation observed later — the lowest-index rule
// treats cancellation like any other error.
func TestCtxCancelDoesNotMaskTaskError(t *testing.T) {
	SetWorkers(1) // serial: task 3 fails before any cancel can be observed
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForCtx(ctx, 10, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the task error", err)
	}
	if errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("task error %v wrongly classified as canceled", err)
	}
}
