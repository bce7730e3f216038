package experiments

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/physerr"
)

// TestRunManyCtxPreCanceled: a canceled batch still returns one outcome
// per requested ID, in order, each carrying an ErrCanceled-classified
// error — the shape cmd/experiments relies on to report a partial run.
func TestRunManyCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := Order()
	outs := RunManyCtx(ctx, ids)
	if len(outs) != len(ids) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(ids))
	}
	for i, o := range outs {
		if o.ID != ids[i] {
			t.Errorf("outcome %d has ID %q, want %q", i, o.ID, ids[i])
		}
		if o.Err == nil || !errors.Is(o.Err, physerr.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", o.ID, o.Err)
		}
		if o.Res != nil {
			t.Errorf("%s: has a result despite pre-cancellation", o.ID)
		}
	}
}

// TestEveryRunnerReturnsPromptlyWhenPreCanceled is the per-kernel
// acceptance check of DESIGN.md §9 at the experiment granularity: every
// registered experiment, handed an already-canceled context, must come
// back with an ErrCanceled-classified error (never a partial table).
// Experiments whose work is too small to hit a cancellation checkpoint
// may legitimately complete; they must then return a full, valid table.
func TestEveryRunnerReturnsPromptlyWhenPreCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipping in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range Order() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Get(id)(ctx)
			if err == nil {
				// Tiny experiments (pure arithmetic, no chunked kernel) can
				// finish before any checkpoint; a complete table is fine, a
				// truncated one is not.
				if res == nil || len(res.Lines) < 2 {
					t.Fatalf("%s returned neither an error nor a full table", id)
				}
				return
			}
			if !errors.Is(err, physerr.ErrCanceled) {
				t.Fatalf("%s: err = %v, want ErrCanceled", id, err)
			}
		})
	}
}

// TestE19PreCanceled: E19's degradation sweeps poll the caller's
// context, so a pre-canceled run comes back canceled instead of
// computing the full table.
func TestE19PreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := E19FailureDegradation(ctx); !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("err = %v (result %v), want ErrCanceled", err, res != nil)
	}
}
