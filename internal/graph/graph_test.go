package graph

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

// allPairs, sampled and bisect run their kernel under
// context.Background(), failing the test on error.
func allPairs(t testing.TB, g *Graph, nodes []int) PathStats {
	t.Helper()
	st, err := g.AllPairsStatsCtx(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sampled(t testing.TB, g *Graph, nodes []int, spec SampleSpec) SampledStats {
	t.Helper()
	st, err := g.AllPairsStatsSampledCtx(context.Background(), nodes, spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func bisect(t testing.TB, g *Graph, restarts int, rng *rand.Rand) float64 {
	t.Helper()
	cut, err := g.BisectionEstimateCtx(context.Background(), restarts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

func TestAddEdgeDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 2, 1) // parallel
	if got := g.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := len(g.EdgesBetween(1, 2)); got != 2 {
		t.Errorf("EdgesBetween(1,2) = %d edges, want 2", got)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 0, 1)
	if got := g.Degree(0); got != 2 {
		t.Errorf("self-loop degree = %d, want 2", got)
	}
	g.RemoveEdge(0)
	if got := g.Degree(0); got != 0 {
		t.Errorf("degree after removing loop = %d, want 0", got)
	}
}

func TestRemoveEdgePreservesIDs(t *testing.T) {
	g := New(4)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(1, 2, 1)
	c := g.AddEdge(2, 3, 1)
	g.RemoveEdge(b)
	if g.Live(b) {
		t.Error("edge b still live after removal")
	}
	if !g.Live(a) || !g.Live(c) {
		t.Error("removal disturbed other edge IDs")
	}
	if g.HasEdgeBetween(1, 2) {
		t.Error("HasEdgeBetween(1,2) true after removal")
	}
	if got := g.NumEdges(); got != 2 {
		t.Errorf("NumEdges = %d, want 2", got)
	}
}

func TestRemoveEdgePanicsOnDead(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1)
	g.RemoveEdge(id)
	defer func() {
		if recover() == nil {
			t.Error("RemoveEdge of dead edge did not panic")
		}
	}()
	g.RemoveEdge(id)
}

func TestNeighborsSortedDistinct(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(2, 1, 1) // parallel must not duplicate neighbor
	got := g.Neighbors(2)
	want := []int{1, 3}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Errorf("dist to isolated node = %d, want -1", dist[2])
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if comps := g.Components(); len(comps) != 2 {
		t.Errorf("Components = %d, want 2", len(comps))
	}
}

func TestAllPairsStatsCycle(t *testing.T) {
	g := cycle(6)
	st := allPairs(t, g, nil)
	if st.Diameter != 3 {
		t.Errorf("C6 diameter = %d, want 3", st.Diameter)
	}
	// C6 distances from any node: 1,1,2,2,3 → mean 9/5.
	if want := 9.0 / 5.0; st.MeanHops != want {
		t.Errorf("C6 mean hops = %v, want %v", st.MeanHops, want)
	}
	if st.Unreachable != 0 {
		t.Errorf("C6 unreachable pairs = %d, want 0", st.Unreachable)
	}
}

func TestAllPairsStatsSubset(t *testing.T) {
	g := path(5)
	st := allPairs(t, g, []int{0, 4})
	if st.Diameter != 4 {
		t.Errorf("subset diameter = %d, want 4", st.Diameter)
	}
	if st.Reachable != 2 {
		t.Errorf("subset reachable pairs = %d, want 2", st.Reachable)
	}
}

func TestMaxFlowSeriesParallel(t *testing.T) {
	// Two disjoint 2-hop paths from 0 to 3 plus a direct edge: flow 3.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 1)
	if f := g.MaxFlow(0, 3); f != 3 {
		t.Errorf("MaxFlow = %v, want 3", f)
	}
}

func TestMaxFlowRespectsCapacity(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 4)
	if f := g.MaxFlow(0, 2); f != 4 {
		t.Errorf("MaxFlow = %v, want 4 (bottleneck)", f)
	}
}

func TestMaxFlowCompleteGraph(t *testing.T) {
	// K5 with unit capacities: 4 edge-disjoint paths between any pair.
	g := complete(5)
	if f := g.MaxFlow(0, 4); f != 4 {
		t.Errorf("K5 MaxFlow = %v, want 4", f)
	}
}

func TestEdgeConnectivityLowerBound(t *testing.T) {
	g := cycle(8)
	k := g.EdgeConnectivityLowerBound([][2]int{{0, 4}, {1, 5}})
	if k != 2 {
		t.Errorf("cycle edge connectivity = %d, want 2", k)
	}
}

func TestSpectralGapCompleteVsCycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	kn := complete(16).SpectralGap(300, rng)
	cn := cycle(16).SpectralGap(300, rng)
	if kn <= cn {
		t.Errorf("complete graph gap %v not larger than cycle gap %v", kn, cn)
	}
	if cn < 0 || kn > 1.0001 {
		t.Errorf("gaps out of range: cycle %v complete %v", cn, kn)
	}
}

func TestBisectionEstimateCycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	// A cycle's balanced min cut is exactly 2.
	got := bisect(t, cycle(12), 8, rng)
	if got != 2 {
		t.Errorf("cycle bisection = %v, want 2", got)
	}
}

func TestBisectionEstimateTwoCliques(t *testing.T) {
	// Two K4s joined by one bridge: balanced min cut = 1.
	g := New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(i+4, j+4, 1)
		}
	}
	g.AddEdge(0, 4, 1)
	rng := rand.New(rand.NewPCG(5, 6))
	if got := bisect(t, g, 16, rng); got != 1 {
		t.Errorf("two-clique bisection = %v, want 1", got)
	}
}

func TestECMPDagPathCounts(t *testing.T) {
	// Diamond: 0–1–3 and 0–2–3. Two shortest paths 0→3.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	dag := g.ECMPDag(3)
	if dag.PathCnt[0] != 2 {
		t.Errorf("path count 0→3 = %v, want 2", dag.PathCnt[0])
	}
	if len(dag.NextHops[0]) != 2 {
		t.Errorf("next hops at 0 = %v, want 2 entries", dag.NextHops[0])
	}
}

func TestECMPLinkLoadsEvenSplit(t *testing.T) {
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	e02 := g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	load := g.ECMPLinkLoads([]int{0}, 3)
	if load[e01] != 0.5 || load[e02] != 0.5 {
		t.Errorf("uneven ECMP split: %v / %v, want 0.5 / 0.5", load[e01], load[e02])
	}
}

func TestECMPLinkLoadsConservation(t *testing.T) {
	g := complete(6)
	srcs := []int{0, 1, 2, 3, 4}
	load := g.ECMPLinkLoads(srcs, 5)
	into := 0.0
	for _, id := range g.IncidentEdges(5) {
		into += load[id]
	}
	if diff := into - float64(len(srcs)); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("flow into dst = %v, want %d", into, len(srcs))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := cycle(5)
	c := g.Clone()
	c.RemoveEdge(0)
	if !g.Live(0) {
		t.Error("RemoveEdge on clone affected original")
	}
	if c.NumEdges() != g.NumEdges()-1 {
		t.Error("clone edge counts wrong")
	}
}

// Property: for random graphs, mean hops ≤ diameter, and removing an edge
// never shrinks BFS distances.
func TestQuickDistanceMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
		n := 6 + int(rng.IntN(10))
		g := New(n)
		// random connected-ish graph: spanning path + extras
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1, 1)
		}
		extra := rng.IntN(n)
		var extras []int
		for i := 0; i < extra; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				extras = append(extras, g.AddEdge(u, v, 1))
			}
		}
		before := g.BFS(0)
		st := allPairs(t, g, nil)
		if st.Reachable > 0 && st.MeanHops > float64(st.Diameter) {
			return false
		}
		if len(extras) > 0 {
			g.RemoveEdge(extras[0])
			after := g.BFS(0)
			for i := range after {
				if after[i] != -1 && before[i] != -1 && after[i] < before[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: max-flow between any two nodes of a connected unit-capacity
// graph is at least 1 and at most min(deg(s), deg(t)).
func TestQuickMaxFlowDegreeBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed|1))
		n := 4 + int(rng.IntN(8))
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1, 1)
		}
		for i := 0; i < n; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		s, t := 0, n-1
		flow := g.MaxFlow(s, t)
		ds, dt := float64(g.Degree(s)), float64(g.Degree(t))
		ub := ds
		if dt < ub {
			ub = dt
		}
		return flow >= 1 && flow <= ub+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := complete(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N)
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	g := complete(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := newDinic(g)
		d.run(0, 63)
	}
}
