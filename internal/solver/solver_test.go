package solver

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// sumState is a toy Annealable: n integers in [0, 9], cost = sum. Optimum
// is all zeros with cost 0.
type sumState struct {
	vals []int
	cost float64
}

func (s *sumState) Propose(rng *rand.Rand) (float64, func(), bool) {
	i := rng.IntN(len(s.vals))
	nv := rng.IntN(10)
	delta := float64(nv - s.vals[i])
	return delta, func() {
		s.vals[i] = nv
		s.cost += delta
	}, true
}

func newSumState(n int, rng *rand.Rand) *sumState {
	s := &sumState{vals: make([]int, n)}
	for i := range s.vals {
		s.vals[i] = rng.IntN(10)
		s.cost += float64(s.vals[i])
	}
	return s
}

// anneal is AnnealCtx under context.Background(), failing the test on
// error.
func anneal(t *testing.T, a Annealable, cfg AnnealConfig) AnnealResult {
	t.Helper()
	res, err := AnnealCtx(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnnealImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := newSumState(50, rng)
	start := s.cost
	res := anneal(t, s, AnnealConfig{Steps: 20000, T0: 5, T1: 0.01, Seed: 42})
	if s.cost >= start {
		t.Errorf("anneal did not improve: %v -> %v", start, s.cost)
	}
	if s.cost > 5 {
		t.Errorf("anneal final cost %v, want near 0", s.cost)
	}
	if res.Accepted == 0 {
		t.Error("no moves accepted")
	}
}

func TestAnnealZeroSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := newSumState(5, rng)
	res := anneal(t, s, AnnealConfig{Steps: 0})
	if res.Accepted != 0 || res.Rejected != 0 {
		t.Errorf("zero-step anneal did work: %+v", res)
	}
}

func TestHillClimbOnlyImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := newSumState(30, rng)
	start := s.cost
	res := HillClimb(s, 5000, 7)
	if res.DeltaSum > 0 {
		t.Errorf("hill climb applied worsening moves: delta %v", res.DeltaSum)
	}
	if s.cost > start {
		t.Errorf("hill climb worsened: %v -> %v", start, s.cost)
	}
}

// cycleState proposes a fixed cycle of deltas regardless of the rng, and
// records each applied delta — a probe for acceptance-rule semantics.
type cycleState struct {
	deltas  []float64
	i       int
	applied []float64
}

func (c *cycleState) Propose(rng *rand.Rand) (float64, func(), bool) {
	d := c.deltas[c.i%len(c.deltas)]
	c.i++
	return d, func() { c.applied = append(c.applied, d) }, true
}

// TestZeroDeltaMoveParity pins the shared acceptance semantics of
// HillClimb and Anneal on the delta axis: both accept delta <= 0
// unconditionally (zero-delta plateau moves included) and, at
// effectively zero temperature, both reject any worsening move. HillClimb
// used to reject delta == 0 while Anneal accepted it, so "Anneal at zero
// temperature" silently disagreed with the climber on plateaus.
func TestZeroDeltaMoveParity(t *testing.T) {
	deltas := []float64{0, 1, -1, 0, 2, -0.5, 0}
	hc := &cycleState{deltas: deltas}
	an := &cycleState{deltas: deltas}
	steps := len(deltas)
	HillClimb(hc, steps, 99)
	// T so small that exp(-delta/T) underflows to 0 for every positive
	// delta: the Metropolis roll can never accept a worsening move.
	anneal(t, an, AnnealConfig{Steps: steps, T0: 1e-300, T1: 1e-300, Seed: 99})
	want := []float64{0, -1, 0, -0.5, 0}
	check := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s applied %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s applied %v, want %v", name, got, want)
			}
		}
	}
	check("HillClimb", hc.applied)
	check("Anneal", an.applied)
}

func TestAssignIdentity(t *testing.T) {
	cost := [][]float64{
		{0, 5, 5},
		{5, 0, 5},
		{5, 5, 0},
	}
	rc, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("total = %v, want 0", total)
	}
	for i, j := range rc {
		if i != j {
			t.Errorf("row %d -> col %d, want identity", i, j)
		}
	}
}

func TestAssignKnownOptimum(t *testing.T) {
	// Classic example: optimum is 1->0(2), 0->1(4)... verify against
	// brute force below instead of hand-computation.
	cost := [][]float64{
		{4, 2, 8},
		{2, 3, 7},
		{3, 1, 6},
	}
	rc, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if bf := bruteForceAssign(cost); math.Abs(total-bf) > 1e-9 {
		t.Errorf("total = %v, brute force = %v (perm %v)", total, bf, rc)
	}
}

func TestAssignForbidden(t *testing.T) {
	inf := math.Inf(1)
	cost := [][]float64{
		{inf, 1},
		{1, inf},
	}
	rc, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || rc[0] != 1 || rc[1] != 0 {
		t.Errorf("rc = %v total = %v, want cross assignment cost 2", rc, total)
	}
}

func TestAssignRejectsNonSquare(t *testing.T) {
	if _, _, err := Assign([][]float64{{1, 2}}); err == nil {
		t.Error("non-square accepted")
	}
}

func TestAssignRect(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{1, 10, 10, 10},
	}
	rc, total, err := AssignRect(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || rc[0] != 1 || rc[1] != 0 {
		t.Errorf("rc = %v total = %v", rc, total)
	}
	if _, _, err := AssignRect([][]float64{{1}, {1}}); err == nil {
		t.Error("rows > cols accepted")
	}
}

func bruteForceAssign(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			t := 0.0
			for r, c := range perm {
				t += cost[r][c]
			}
			if t < best {
				best = t
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// Property: Hungarian matches brute force on random small matrices and
// always returns a permutation.
func TestQuickAssignMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 2 + int(rng.IntN(5))
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.IntN(100))
			}
		}
		rc, total, err := Assign(cost)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, j := range rc {
			if j < 0 || j >= n || seen[j] {
				return false
			}
			seen[j] = true
		}
		return math.Abs(total-bruteForceAssign(cost)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveBinaryKnapsackStyle(t *testing.T) {
	// Minimize sum of selected costs subject to selecting at least 3 of 6
	// items. Optimum: three cheapest = 1+2+3.
	costs := []float64{5, 1, 4, 2, 6, 3}
	p := BinaryProblem{
		N: 6,
		Cost: func(x []bool) float64 {
			t := 0.0
			for i, v := range x {
				if v {
					t += costs[i]
				}
			}
			return t
		},
		Feasible: func(x []bool) bool {
			n := 0
			for _, v := range x {
				if v {
					n++
				}
			}
			return n >= 3
		},
	}
	best, cost, exact := SolveBinary(p, 1<<20)
	if !exact {
		t.Fatal("search not exact within budget")
	}
	if cost != 6 {
		t.Errorf("cost = %v, want 6 (items 1,3,5): %v", cost, best)
	}
}

func TestSolveBinaryBudgetExhaustion(t *testing.T) {
	p := BinaryProblem{
		N:    20,
		Cost: func(x []bool) float64 { return 0 },
	}
	_, _, exact := SolveBinary(p, 10)
	if exact {
		t.Error("claimed exact with 10-node budget on 2^20 tree")
	}
}

func TestSolveBinaryBoundPrunes(t *testing.T) {
	// With a perfect bound, the tree collapses. Count via node budget:
	// generous bound-free search needs > 2^10 nodes; bounded search must
	// finish within a small budget.
	costs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	p := BinaryProblem{
		N: 10,
		Cost: func(x []bool) float64 {
			t := 0.0
			for i, v := range x {
				if v {
					t += costs[i]
				}
			}
			return t
		},
		Bound: func(x []bool, fixed int) float64 {
			t := 0.0
			for i := 0; i < fixed; i++ {
				if x[i] {
					t += costs[i]
				}
			}
			return t
		},
	}
	_, cost, exact := SolveBinary(p, 200)
	if !exact || cost != 0 {
		t.Errorf("bounded search: exact=%v cost=%v, want exact cost 0", exact, cost)
	}
}
