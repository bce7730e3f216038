package graph

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"physdep/internal/obs"
)

// messy builds a graph that exercises every CSR packing edge case:
// parallel edges, self-loops (twice in adj), zero capacities, and a
// tombstoned edge slot.
func messy() *Graph {
	g := New(6)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 0) // parallel, zero cap (counts as 1 for cuts)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 2, 5) // self-loop
	g.AddEdge(2, 3, 1)
	dead := g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 0, 1)
	g.RemoveEdge(dead) // leave a tombstone; 3–4 now only via 5
	return g
}

func TestSnapshotMatchesAdjacency(t *testing.T) {
	g := messy()
	// BFS before any freeze exercises the pointer-chasing path…
	legacy := make([][]int, g.N)
	for u := 0; u < g.N; u++ {
		legacy[u] = g.BFS(u)
	}
	s := g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze did not cache a snapshot")
	}
	if s2 := g.Freeze(); s2 != s {
		t.Error("second Freeze rebuilt instead of returning the cache")
	}
	// …and after the freeze the packed walk must give identical distances.
	for u := 0; u < g.N; u++ {
		if got := g.BFS(u); !reflect.DeepEqual(got, legacy[u]) {
			t.Errorf("BFS(%d) frozen = %v, unfrozen = %v", u, got, legacy[u])
		}
	}
	for u := 0; u < g.N; u++ {
		if s.Degree(u) != g.Degree(u) {
			t.Errorf("snapshot degree(%d) = %d, graph has %d", u, s.Degree(u), g.Degree(u))
		}
		want := g.Neighbors(u)
		row := s.Neighbors(u)
		got := make([]int, len(row))
		for i, w := range row {
			got[i] = int(w)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot Neighbors(%d) = %v, graph has %v", u, got, want)
		}
	}
	if s.NumNodes() != g.N {
		t.Errorf("snapshot has %d nodes, graph %d", s.NumNodes(), g.N)
	}
}

// TestFreezeInvalidation interleaves mutations with kernel calls and
// checks every kernel answer against a fresh, identically-built graph —
// a stale snapshot surviving any of the mutations would diverge.
func TestFreezeInvalidation(t *testing.T) {
	type op struct {
		name   string
		mutate func(g *Graph) // applied to both graphs
	}
	g := messy()
	var loop int // self-loop edge id, shared across ops below
	ops := []op{
		{"add edge", func(g *Graph) { g.AddEdge(3, 4, 1) }},
		{"add self-loop", func(g *Graph) { loop = g.AddEdge(1, 1, 2) }},
		{"remove self-loop", func(g *Graph) { g.RemoveEdge(loop) }},
		{"add node + edge", func(g *Graph) { n := g.AddNode(); g.AddEdge(n, 0, 1) }},
		{"remove edge", func(g *Graph) { g.RemoveEdge(2) }},
		// Additions after a removal: the first freeze below is a full
		// rebuild (the removal retired the patch base), the ones after ride
		// the delta path again — both still must match the fresh twin.
		{"add parallel edge", func(g *Graph) { g.AddEdge(0, 1, 3) }},
		{"add isolated node", func(g *Graph) { g.AddNode() }},
		{"add zero-cap edge", func(g *Graph) { g.AddEdge(4, 0, 0) }},
	}
	rebuild := func(upTo int) *Graph {
		f := messy()
		for _, o := range ops[:upTo] {
			o.mutate(f)
		}
		return f
	}
	for i, o := range ops {
		// Kernel call freezes…
		allPairs(t, g, nil)
		if !g.Frozen() {
			t.Fatalf("before %q: AllPairsStatsCtx did not freeze", o.name)
		}
		// …mutation invalidates…
		o.mutate(g)
		if g.Frozen() {
			t.Fatalf("after %q: mutation left a stale snapshot cached", o.name)
		}
		// …and the re-frozen kernels must match a never-mutated twin.
		fresh := rebuild(i + 1)
		if got, want := allPairs(t, g, nil), allPairs(t, fresh, nil); got != want {
			t.Errorf("after %q: AllPairsStatsCtx = %+v, fresh graph gives %+v", o.name, got, want)
		}
		for u := 0; u < g.N; u++ {
			if !reflect.DeepEqual(g.BFS(u), fresh.BFS(u)) {
				t.Errorf("after %q: BFS(%d) diverges from fresh graph", o.name, u)
			}
		}
		gr := rand.New(rand.NewPCG(7, 9))
		fr := rand.New(rand.NewPCG(7, 9))
		if got, want := bisect(t, g, 3, gr), bisect(t, fresh, 3, fr); got != want {
			t.Errorf("after %q: BisectionEstimateCtx = %v, fresh graph gives %v", o.name, got, want)
		}
		gr = rand.New(rand.NewPCG(3, 4))
		fr = rand.New(rand.NewPCG(3, 4))
		if got, want := g.SpectralGap(50, gr), fresh.SpectralGap(50, fr); got != want {
			t.Errorf("after %q: SpectralGap = %v, fresh graph gives %v", o.name, got, want)
		}
	}
}

// TestFreezeConcurrent hammers lazy freezing from many goroutines (run
// under -race in check.sh): concurrent Freeze calls and packed-vs-legacy
// BFS walks must agree and never trip the race detector.
func TestFreezeConcurrent(t *testing.T) {
	g := messy()
	want := g.BFS(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				g.Freeze()
				if got := g.BFS(0); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent BFS = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIncidentEdgesMutationSafe pins the fix for the aliasing bug:
// IncidentEdges used to return the graph's internal adjacency slice, so
// a caller writing through it corrupted the adjacency (and any frozen
// snapshot built from it).
func TestIncidentEdgesMutationSafe(t *testing.T) {
	g := messy()
	s := g.Freeze()
	before := append([]int(nil), g.IncidentEdges(1)...)
	ids := g.IncidentEdges(1)
	for i := range ids {
		ids[i] = -999 // scribble over the returned slice
	}
	if got := g.IncidentEdges(1); !reflect.DeepEqual(got, before) {
		t.Fatalf("mutating the returned slice corrupted adjacency: %v, want %v", got, before)
	}
	if !g.Frozen() {
		t.Error("IncidentEdges invalidated the snapshot; it is a read")
	}
	if got := g.Freeze(); got != s {
		t.Error("snapshot rebuilt after a pure read")
	}
	// The graph must still answer queries that walk adj[1].
	if !g.HasEdgeBetween(1, 2) {
		t.Error("adjacency of node 1 corrupted: lost edge 1–2")
	}
}

// snapEqual compares every packed array of two snapshots — the literal
// "byte-identical" check the delta-freeze contract promises against a
// full rebuild of the same graph.
func snapEqual(a, b *Snapshot) bool {
	return a.n == b.n &&
		reflect.DeepEqual(a.off, b.off) &&
		reflect.DeepEqual(a.edge, b.edge) &&
		reflect.DeepEqual(a.nbr, b.nbr) &&
		reflect.DeepEqual(a.caps, b.caps) &&
		reflect.DeepEqual(a.nbrOff, b.nbrOff) &&
		reflect.DeepEqual(a.nbrList, b.nbrList)
}

func freezeCounters() (builds, deltas int64) {
	s := obs.TakeSnapshot()
	return s.Counters["graph.freeze.builds"], s.Counters["graph.freeze.deltas"]
}

// TestDeltaFreezePatchesAdditions: when only additions happened since the
// last build, Freeze must take the patch path (graph.freeze.deltas, not
// .builds) and the patched snapshot must be byte-identical to a full
// rebuild of an identically-constructed twin — covering parallel edges,
// self-loops, zero capacities, isolated new nodes, and edges between two
// new nodes.
func TestDeltaFreezePatchesAdditions(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset() }()

	grow := func(g *Graph) {
		g.AddEdge(3, 4, 2)
		g.AddEdge(0, 1, 0) // parallel to an existing pair, zero cap
		g.AddEdge(4, 4, 7) // self-loop on an old node
		n := g.AddNode()   // stays isolated
		m := g.AddNode()
		g.AddEdge(m, 2, 1)
		g.AddEdge(m, n, 3)
	}
	g := messy()
	g.Freeze() // full build (messy's RemoveEdge retired any base)
	b0, d0 := freezeCounters()
	grow(g)
	if g.Frozen() {
		t.Fatal("additions left a stale snapshot cached")
	}
	s := g.Freeze()
	b1, d1 := freezeCounters()
	if b1 != b0 {
		t.Errorf("additions-only Freeze did a full pack (builds %d → %d)", b0, b1)
	}
	if d1 != d0+1 {
		t.Errorf("additions-only Freeze deltas %d → %d, want +1", d0, d1)
	}
	twin := messy()
	grow(twin)
	if !snapEqual(s, twin.Freeze()) {
		t.Error("delta-freeze snapshot differs from a full rebuild of the same graph")
	}
	// Patching a patched snapshot must also stay identical to a from-
	// scratch full build.
	g.AddEdge(0, 3, 1)
	s2 := g.Freeze()
	_, d2 := freezeCounters()
	if d2 != d1+1 {
		t.Errorf("second additions-only Freeze deltas %d → %d, want +1", d1, d2)
	}
	twin2 := messy()
	grow(twin2)
	twin2.AddEdge(0, 3, 1)
	if !snapEqual(s2, twin2.Freeze()) {
		t.Error("patch-of-a-patch snapshot differs from a full rebuild")
	}
}

// TestDeltaFreezeRemovalForcesRebuild: any RemoveEdge since the last
// build retires the patch base — the next Freeze is a full pack — and
// additions after that rebuild ride the delta path again.
func TestDeltaFreezeRemovalForcesRebuild(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset() }()

	g := messy()
	g.Freeze()
	g.AddEdge(3, 4, 1)
	g.Freeze() // delta
	id := g.AddEdge(0, 4, 1)
	g.RemoveEdge(id)
	b0, d0 := freezeCounters()
	s := g.Freeze()
	b1, d1 := freezeCounters()
	if b1 != b0+1 || d1 != d0 {
		t.Errorf("freeze after removal: builds %d → %d (want +1), deltas %d → %d (want +0)",
			b0, b1, d0, d1)
	}
	twin := messy()
	twin.AddEdge(3, 4, 1)
	tid := twin.AddEdge(0, 4, 1)
	twin.RemoveEdge(tid)
	if !snapEqual(s, twin.Freeze()) {
		t.Error("post-removal rebuild differs from an identically-built twin")
	}
	g.AddEdge(1, 5, 1)
	s2 := g.Freeze()
	_, d2 := freezeCounters()
	if d2 != d1+1 {
		t.Errorf("additions after the rebuild should patch again (deltas %d → %d)", d1, d2)
	}
	twin.AddEdge(1, 5, 1)
	twinFull := messy()
	twinFull.AddEdge(3, 4, 1)
	tfid := twinFull.AddEdge(0, 4, 1)
	twinFull.RemoveEdge(tfid)
	twinFull.AddEdge(1, 5, 1)
	if !snapEqual(s2, twinFull.Freeze()) {
		t.Error("delta after rebuild differs from a from-scratch full pack")
	}
}

// TestDeltaFreezeConcurrent hammers the patch path the way
// TestFreezeConcurrent hammers the full build: many goroutines freezing
// a graph whose next snapshot comes from patchSnapshot (run under -race
// in check.sh).
func TestDeltaFreezeConcurrent(t *testing.T) {
	g := messy()
	g.Freeze()
	g.AddEdge(3, 4, 1)
	g.AddEdge(0, 2, 2) // next Freeze patches both additions
	twin := messy()
	twin.AddEdge(3, 4, 1)
	twin.AddEdge(0, 2, 2)
	want := twin.BFS(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				g.Freeze()
				if got := g.BFS(0); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent delta BFS = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllPairsStatsDisconnected pins the PathStats aggregation contract
// on a fully-disconnected node set: MeanHops is a documented 0 — never
// NaN from a 0/0 — and every ordered pair counts as unreachable.
func TestAllPairsStatsDisconnected(t *testing.T) {
	g := New(5) // edgeless
	for _, nodes := range [][]int{nil, {0, 2, 4}} {
		st := allPairs(t, g, nodes)
		n := 5
		if nodes != nil {
			n = len(nodes)
		}
		if math.IsNaN(st.MeanHops) || st.MeanHops != 0 {
			t.Errorf("nodes=%v: MeanHops = %v, want 0", nodes, st.MeanHops)
		}
		if st.Reachable != 0 {
			t.Errorf("nodes=%v: Reachable = %d, want 0", nodes, st.Reachable)
		}
		if want := n * (n - 1); st.Unreachable != want {
			t.Errorf("nodes=%v: Unreachable = %d, want %d", nodes, st.Unreachable, want)
		}
		if st.Diameter != 0 {
			t.Errorf("nodes=%v: Diameter = %d, want 0", nodes, st.Diameter)
		}
	}
}
