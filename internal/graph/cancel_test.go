package graph

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"physdep/internal/physerr"
)

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestAllPairsStatsCtxPreCanceled(t *testing.T) {
	g := complete(64)
	nodes := make([]int, g.N)
	for i := range nodes {
		nodes[i] = i
	}
	_, err := g.AllPairsStatsCtx(canceledCtx(), nodes)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestBisectionEstimateCtxPreCanceled(t *testing.T) {
	g := complete(16)
	rng := rand.New(rand.NewPCG(1, 2))
	_, err := g.BisectionEstimateCtx(canceledCtx(), 4, rng)
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestCtxVariantsMatchContextFree: a live, never-fired cancellable
// context (the polling path) must not move a number versus
// context.Background() (no polling: its Done channel is nil).
func TestCtxVariantsMatchContextFree(t *testing.T) {
	g := cycle(40)
	nodes := make([]int, g.N)
	for i := range nodes {
		nodes[i] = i
	}
	want := allPairs(t, g, nodes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := g.AllPairsStatsCtx(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable run %+v != background %+v", got, want)
	}

	wantB := bisect(t, cycle(16), 4, rand.New(rand.NewPCG(7, 7)))
	gotB, err := cycle(16).BisectionEstimateCtx(ctx, 4, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("cancellable bisection %v != background %v", gotB, wantB)
	}
}
