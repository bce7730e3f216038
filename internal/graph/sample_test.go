package graph

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"physdep/internal/par"
	"physdep/internal/physerr"
)

// testExpander builds a deterministic connected graph with heterogeneous
// rows: a ring (connectivity) plus n seeded random chords. Unlike a
// circulant or complete graph it is not vertex-transitive, so per-source
// row means genuinely differ — which is what makes the sample, the
// estimate, and the confidence interval all depend on which sources were
// drawn.
func testExpander(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	rng := rand.New(rand.NewPCG(424242, 171717))
	for k := 0; k < n; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v && !g.HasEdgeBetween(u, v) {
			g.AddEdge(u, v, 1)
		}
	}
	return g
}

func TestSampledExactFallbackMatchesExhaustive(t *testing.T) {
	g := testExpander(200) // well under DefaultExhaustiveBelow
	want := allPairs(t, g, nil)
	got := sampled(t, g, nil, SampleSpec{Seed: 9})
	if !got.Exact {
		t.Fatalf("200 nodes should take the exhaustive fallback, got sampled")
	}
	if got.PathStats != want {
		t.Fatalf("fallback stats %+v != exhaustive %+v", got.PathStats, want)
	}
	if got.Sources != 200 || got.MeanHopsCI != 0 {
		t.Fatalf("fallback provenance: sources=%d ci=%v, want 200 and 0", got.Sources, got.MeanHopsCI)
	}
}

func TestSampledFallbackWhenSampleCoversSet(t *testing.T) {
	// Forcing sampling but asking for >= n sources must also fall back:
	// a "sample" of everything is the exhaustive sweep.
	g := testExpander(100)
	got := sampled(t, g, nil, SampleSpec{Sources: 100, Seed: 3, ExhaustiveBelow: -1})
	if !got.Exact {
		t.Fatalf("sources >= n should take the exhaustive fallback")
	}
}

// TestSampledAccuracyBound pins the estimator against ground truth on a
// graph large enough to sample (sampling forced): the seeded run is
// deterministic, so the observed error is a constant — the assertions
// check it sits inside the claimed 95% interval and that the interval
// itself is tight (within 2% of the mean).
func TestSampledAccuracyBound(t *testing.T) {
	g := testExpander(1500)
	exact := allPairs(t, g, nil)
	est := sampled(t, g, nil, SampleSpec{Seed: 12345, ExhaustiveBelow: -1})
	if est.Exact {
		t.Fatal("expected a sampled run")
	}
	if est.Sources != DefaultSampleSources {
		t.Fatalf("sources = %d, want %d", est.Sources, DefaultSampleSources)
	}
	if err := math.Abs(est.MeanHops - exact.MeanHops); err > est.MeanHopsCI {
		t.Errorf("mean-hops error %v exceeds claimed 95%% interval %v", err, est.MeanHopsCI)
	}
	if est.MeanHopsCI > 0.02*exact.MeanHops {
		t.Errorf("interval %v is over 2%% of mean %v — estimator lost precision", est.MeanHopsCI, exact.MeanHops)
	}
	if est.Diameter > exact.Diameter {
		t.Errorf("sampled diameter %d exceeds true diameter %d — it must be a lower bound", est.Diameter, exact.Diameter)
	}
	// Connected graph: every sampled row reaches all n-1 others, so the
	// scaled pair counts are exact.
	n := 1500
	if est.Reachable != n*(n-1) || est.Unreachable != 0 {
		t.Errorf("scaled pair counts (%d, %d), want (%d, 0)", est.Reachable, est.Unreachable, n*(n-1))
	}
}

// TestSampledDeterministicAcrossWorkers is the determinism contract for
// the new entry point: the full SampledStats (estimate, CI, provenance)
// must be byte-identical between a serial and a maximally parallel run.
func TestSampledDeterministicAcrossWorkers(t *testing.T) {
	g := testExpander(800)
	spec := SampleSpec{Seed: 77, ExhaustiveBelow: -1}
	runAt := func(workers int) SampledStats {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		return sampled(t, g, nil, spec)
	}
	serial := runAt(1)
	parallel := runAt(8)
	if serial != parallel {
		t.Fatalf("workers=1 %+v != workers=8 %+v", serial, parallel)
	}
}

// TestSampledSeedSelectsDifferentSources: two seeds must genuinely vary
// the sample (estimates differ at full float precision), while one seed
// repeated is identical — the "pure function of (nodes, spec)" contract.
func TestSampledSeedContract(t *testing.T) {
	g := testExpander(900)
	a := sampled(t, g, nil, SampleSpec{Seed: 1, ExhaustiveBelow: -1})
	a2 := sampled(t, g, nil, SampleSpec{Seed: 1, ExhaustiveBelow: -1})
	b := sampled(t, g, nil, SampleSpec{Seed: 2, ExhaustiveBelow: -1})
	if a != a2 {
		t.Fatalf("same seed diverged: %+v vs %+v", a, a2)
	}
	if a.MeanHops == b.MeanHops {
		t.Fatalf("seeds 1 and 2 picked identical samples (mean %v) — seed is not reaching selection", a.MeanHops)
	}
}

func TestSampledCtxPreCanceled(t *testing.T) {
	g := testExpander(600)
	_, err := g.AllPairsStatsSampledCtx(canceledCtx(), nil, SampleSpec{Seed: 5, ExhaustiveBelow: -1})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	// The exhaustive-fallback path must classify the same way.
	_, err = g.AllPairsStatsSampledCtx(canceledCtx(), nil, SampleSpec{Seed: 5})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("fallback path: got %v, want ErrCanceled", err)
	}
}

func TestSampledCtxExpiredDeadline(t *testing.T) {
	g := testExpander(600)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := g.AllPairsStatsSampledCtx(ctx, nil, SampleSpec{Seed: 5, ExhaustiveBelow: -1})
	if !errors.Is(err, physerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the DeadlineExceeded cause preserved", err)
	}
}

// TestSampledCtxMatchesContextFree: a live, never-fired cancellable
// context (the polling path) must not move a number versus
// context.Background() (no polling: its Done channel is nil).
func TestSampledCtxMatchesContextFree(t *testing.T) {
	g := testExpander(700)
	spec := SampleSpec{Seed: 11, ExhaustiveBelow: -1}
	want := sampled(t, g, nil, spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := g.AllPairsStatsSampledCtx(ctx, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cancellable run %+v != background %+v", got, want)
	}
}

// TestPartialPadding pins the anti-false-sharing layout: the per-worker
// reduction state and scratch headers must stay two cache lines wide so
// adjacent workers never write the same line.
func TestPartialPadding(t *testing.T) {
	if s := unsafe.Sizeof(apPartial{}); s != 128 {
		t.Errorf("apPartial is %d bytes, want 128 (two cache lines)", s)
	}
	if s := unsafe.Sizeof(apScratch{}); s != 128 {
		t.Errorf("apScratch is %d bytes, want 128 (two cache lines)", s)
	}
}
