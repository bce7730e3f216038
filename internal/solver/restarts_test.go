package solver

import (
	"context"
	"math/rand/v2"
	"testing"

	"physdep/internal/par"
)

// walkState is a 1-D random-walk toy objective: position x, moves ±1,
// cost |x - target|. Good enough to exercise chain independence.
type walkState struct {
	x, target int
}

func (w *walkState) Propose(rng *rand.Rand) (float64, func(), bool) {
	step := 1
	if rng.IntN(2) == 0 {
		step = -1
	}
	cost := func(x int) float64 {
		d := x - w.target
		if d < 0 {
			d = -d
		}
		return float64(d)
	}
	delta := cost(w.x+step) - cost(w.x)
	return delta, func() { w.x += step }, true
}

// TestAnnealRestartsDeterministicAcrossWorkerCounts: same winning chain
// and same per-chain results at any pool width.
func TestAnnealRestartsDeterministicAcrossWorkerCounts(t *testing.T) {
	runAt := func(workers int) (int, []int) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		states := make([]Annealable, 8)
		walks := make([]*walkState, 8)
		for c := range states {
			walks[c] = &walkState{x: 100, target: 0}
			states[c] = walks[c]
		}
		cfg := DefaultAnnealConfig(500)
		cfg.Seed = 9
		best, _, err := AnnealRestartsCtx(context.Background(), states, cfg, func(c int) float64 {
			d := walks[c].x
			if d < 0 {
				d = -d
			}
			return float64(d)
		})
		if err != nil {
			t.Fatal(err)
		}
		finals := make([]int, len(walks))
		for c, w := range walks {
			finals[c] = w.x
		}
		return best, finals
	}
	best1, finals1 := runAt(1)
	best8, finals8 := runAt(8)
	if best1 != best8 {
		t.Fatalf("winning chain differs: %d (workers=1) vs %d (workers=8)", best1, best8)
	}
	for c := range finals1 {
		if finals1[c] != finals8[c] {
			t.Fatalf("chain %d final state differs: %d vs %d", c, finals1[c], finals8[c])
		}
	}
}

// TestChainZeroMatchesPlainAnneal: AnnealRestartsCtx chain 0 must replay the
// exact single-chain schedule, so multi-restart can never regress a
// tuned single-seed run.
func TestChainZeroMatchesPlainAnneal(t *testing.T) {
	cfg := DefaultAnnealConfig(400)
	cfg.Seed = 21

	single := &walkState{x: 50, target: 0}
	resSingle := anneal(t, single, cfg)

	chain := &walkState{x: 50, target: 0}
	_, chains, err := AnnealRestartsCtx(context.Background(), []Annealable{chain, &walkState{x: 50, target: 0}}, cfg,
		func(c int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if chain.x != single.x {
		t.Fatalf("chain 0 ended at %d, plain AnnealCtx at %d", chain.x, single.x)
	}
	if chains[0] != resSingle {
		t.Fatalf("chain 0 result %+v differs from plain AnnealCtx %+v", chains[0], resSingle)
	}
}
