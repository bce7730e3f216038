package placement

import (
	"context"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/par"
	"physdep/internal/topology"
	"physdep/internal/units"
)

func restartPlacement(t *testing.T) *Placement {
	t.Helper()
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Greedy(ft, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// optimize and optimizeRestarts run their annealer under
// context.Background(), failing the test on error.
func optimize(t *testing.T, p *Placement, steps int, seed uint64) (before, after units.Meters) {
	t.Helper()
	before, after, err := OptimizeCtx(context.Background(), p, steps, seed)
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

func optimizeRestarts(t *testing.T, p *Placement, steps int, seed uint64, restarts int) (before, after units.Meters) {
	t.Helper()
	before, after, err := OptimizeRestartsCtx(context.Background(), p, steps, seed, restarts)
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// TestOptimizeRestartsDeterministicAcrossWorkerCounts: the multi-restart
// annealer must pick the same winning chain — and install the same slot
// assignment — whether the chains ran serially or in parallel.
func TestOptimizeRestartsDeterministicAcrossWorkerCounts(t *testing.T) {
	layoutAt := func(workers int) ([]int, float64) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		p := restartPlacement(t)
		_, after := optimizeRestarts(t, p, 3000, 7, 6)
		return append([]int(nil), p.SlotOfRack...), float64(after)
	}
	slots1, after1 := layoutAt(1)
	slots8, after8 := layoutAt(8)
	if after1 != after8 {
		t.Fatalf("final cable length differs: %v (workers=1) vs %v (workers=8)", after1, after8)
	}
	for r := range slots1 {
		if slots1[r] != slots8[r] {
			t.Fatalf("rack %d slot differs: %d vs %d", r, slots1[r], slots8[r])
		}
	}
}

// TestOptimizeRestartsNoWorseThanSingleChain: chain 0 replays the exact
// single-chain schedule, so the best-of-N result can never lose to
// OptimizeCtx with the same seed.
func TestOptimizeRestartsNoWorseThanSingleChain(t *testing.T) {
	pSingle := restartPlacement(t)
	_, afterSingle := optimize(t, pSingle, 3000, 7)
	pMulti := restartPlacement(t)
	_, afterMulti := optimizeRestarts(t, pMulti, 3000, 7, 6)
	if afterMulti > afterSingle {
		t.Fatalf("multi-restart ended at %v, worse than single-chain %v", afterMulti, afterSingle)
	}
}

// TestOptimizeRestartsPreservesRUAccounting: the adopted winner's floor
// occupancy must match a from-scratch reservation of the final layout.
func TestOptimizeRestartsPreservesRUAccounting(t *testing.T) {
	p := restartPlacement(t)
	wantTotal := 0
	for i := 0; i < p.Floor.NumRacks(); i++ {
		wantTotal += p.Floor.UsedRU(i)
	}
	optimizeRestarts(t, p, 2000, 3, 4)
	gotTotal := 0
	used := 0
	for i := 0; i < p.Floor.NumRacks(); i++ {
		gotTotal += p.Floor.UsedRU(i)
		if p.Floor.UsedRU(i) > 0 {
			used++
		}
	}
	if gotTotal != wantTotal {
		t.Fatalf("total reserved RU changed: %d -> %d", wantTotal, gotTotal)
	}
	if used != p.NumRacks() {
		t.Fatalf("%d slots carry RU, want %d (one per logical rack)", used, p.NumRacks())
	}
}
