package graph

import (
	"fmt"
	"math"
	"slices"

	"physdep/internal/obs"
)

// Snapshot is an immutable compressed-sparse-row (CSR) view of a graph's
// adjacency: the per-node edge-ID lists of Graph.adj packed into flat
// arrays behind one offsets index, with the opposite endpoint and the raw
// capacity resolved per slot. The read-only kernels (BFS sweeps, bisection
// refinement, the spectral matvec, KSP enumeration) iterate this form —
// one contiguous walk instead of a pointer chase per node — and because
// every packed row preserves adj's slot order exactly (self-loops still
// appear twice), a kernel run over the snapshot is byte-identical to the
// same run over the live adjacency.
//
// A Snapshot is never mutated after Freeze builds it, so any number of
// goroutines may read it concurrently.
type Snapshot struct {
	n int
	// Raw incidence: node u's slots are off[u]..off[u+1]. edge holds the
	// edge ID per slot, nbr the endpoint opposite u (== u for self-loops),
	// and caps the raw Edge.Cap (zero kept as zero; kernels that follow
	// the "zero caps count as 1" convention apply it themselves).
	off  []int32
	edge []int32
	nbr  []int32
	caps []float64
	// Distinct neighbors, ascending, self excluded — exactly the slice
	// Graph.Neighbors(u) returns, shared so per-caller neighbor tables
	// (KSP enumeration) need not be rebuilt and re-sorted per call.
	nbrOff  []int32
	nbrList []int32
}

// NumNodes returns the node count the snapshot was frozen at.
func (s *Snapshot) NumNodes() int { return s.n }

// Neighbors returns the distinct neighbor nodes of u in ascending order,
// excluding u itself — the packed equivalent of Graph.Neighbors. The
// returned slice aliases the snapshot and must not be modified.
func (s *Snapshot) Neighbors(u int) []int32 {
	return s.nbrList[s.nbrOff[u]:s.nbrOff[u+1]]
}

// Degree returns the degree of node u (self-loops count twice), matching
// Graph.Degree at freeze time.
func (s *Snapshot) Degree(u int) int { return int(s.off[u+1] - s.off[u]) }

// Row returns node u's incidence slots as two parallel slices — the edge
// ID and the endpoint opposite u for each slot, in adjacency slot order.
// Removal swap-deletes adjacency entries, so slot order is not sorted by
// edge ID; callers that need the EdgesBetween order must sort. Both
// slices alias the snapshot and must not be modified.
func (s *Snapshot) Row(u int) (edge, nbr []int32) {
	return s.edge[s.off[u]:s.off[u+1]], s.nbr[s.off[u]:s.off[u+1]]
}

// freezeBase records what the last snapshot was built from: the snapshot
// itself plus the node and edge counts at build time. Because AddNode and
// AddEdge only ever append — to Edges, and to the tail of each endpoint's
// adjacency row — a graph that has seen only additions since the base can
// derive the exact delta from the counts alone: new nodes are
// [base.nodes, N), new edges are [base.edges, len(Edges)), and every old
// adjacency row is the base row plus appended slots. RemoveEdge breaks
// the append-only property (swap-delete reorders rows), so it drops the
// base and the next Freeze does a full rebuild.
type freezeBase struct {
	snap  *Snapshot
	nodes int
	edges int
}

// Freeze returns the graph's CSR snapshot, building and caching it on
// first use. Freeze is idempotent and safe to call from multiple
// goroutines (concurrent builds produce identical snapshots; one wins).
// Any mutation — AddNode, AddEdge, RemoveEdge — invalidates the cached
// snapshot, and the next Freeze repacks it from the live adjacency;
// mutating the graph while a kernel is iterating a snapshot it already
// loaded is the caller's race, exactly as it was for the live adjacency.
//
// Repacking is incremental when it can be: if only additions happened
// since the last build, Freeze patches the previous snapshot — copying
// old rows and appending the new slots — instead of walking the whole
// adjacency (counted as "graph.freeze.deltas"; full packs remain
// "graph.freeze.builds"). Any removal falls back to a full rebuild. The
// two paths are byte-identical by construction and pinned so by test,
// so callers cannot observe which one ran except through the counters.
//
// The read-only kernels (AllPairsStatsCtx, BisectionEstimateCtx, SpectralGap,
// trafficsim's KSP) freeze on entry, so callers never need to call Freeze
// explicitly — it exists for code that wants to pay the build outside a
// timed or latency-sensitive region.
func (g *Graph) Freeze() *Snapshot {
	if s := g.snap.Load(); s != nil {
		return s
	}
	var s *Snapshot
	if b := g.base.Load(); b != nil && g.N >= b.nodes && len(g.Edges) >= b.edges {
		s = g.patchSnapshot(b)
	} else {
		s = g.buildSnapshot()
	}
	g.base.Store(&freezeBase{snap: s, nodes: g.N, edges: len(g.Edges)})
	g.snap.Store(s)
	return s
}

// Frozen reports whether a current snapshot is cached (mutation clears
// it). Exposed for the invalidation regression tests.
func (g *Graph) Frozen() bool { return g.snap.Load() != nil }

// invalidateSnapshot drops the cached snapshot; every adjacency mutation
// calls it so a stale packed view can never be observed. The freeze base
// survives — additions keep it usable as a patch source — except on
// removal, where dropBase retires it too.
func (g *Graph) invalidateSnapshot() { g.snap.Store(nil) }

// dropBase retires the patch source; RemoveEdge calls it because
// swap-deleting adjacency entries breaks the append-only row layout the
// delta path depends on.
func (g *Graph) dropBase() { g.base.Store(nil) }

func (g *Graph) buildSnapshot() *Snapshot {
	// The build counter is how snapshot sharing is proven, not just
	// claimed: the evaluation daemon's tests pin "N concurrent requests,
	// one freeze" on it, and a cache-hit request asserts it stays flat.
	obs.Inc("graph.freeze.builds")
	slots := 0
	for _, row := range g.adj {
		slots += len(row)
	}
	// int32 indexing halves the packed arrays' footprint. A graph that
	// overflows it would need >2^31 incidence slots (hundreds of GB of
	// live adjacency) — far past the validated topology envelope — so
	// overflow is an invariant breach, not reachable user input.
	if g.N >= math.MaxInt32 || slots >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: Freeze: graph too large for CSR snapshot (%d nodes, %d incidence slots)", g.N, slots))
	}
	s := &Snapshot{
		n:      g.N,
		off:    make([]int32, g.N+1),
		edge:   make([]int32, slots),
		nbr:    make([]int32, slots),
		caps:   make([]float64, slots),
		nbrOff: make([]int32, g.N+1),
	}
	pos := int32(0)
	for u, row := range g.adj {
		s.off[u] = pos
		for _, id := range row {
			e := g.Edges[id]
			s.edge[pos] = int32(id)
			s.nbr[pos] = int32(e.Other(u))
			s.caps[pos] = e.Cap
			pos++
		}
	}
	s.off[g.N] = pos
	// Distinct neighbor table. mark is reset via the per-node row itself,
	// so the build stays O(nodes + slots + sort).
	mark := make([]bool, g.N)
	list := make([]int32, 0, slots)
	for u := 0; u < g.N; u++ {
		s.nbrOff[u] = int32(len(list))
		start := len(list)
		for _, w := range s.nbr[s.off[u]:s.off[u+1]] {
			if int(w) == u || mark[w] {
				continue
			}
			mark[w] = true
			list = append(list, w)
		}
		row := list[start:]
		for _, w := range row {
			mark[w] = false
		}
		slices.Sort(row)
	}
	s.nbrOff[g.N] = int32(len(list))
	s.nbrList = list
	return s
}

// patchSnapshot builds the snapshot for a graph that has only grown since
// base: old adjacency rows are copied from the base snapshot (their
// prefix is unchanged — additions append), appended slots are resolved
// from the live adjacency tails, and the distinct-neighbor table is
// copied verbatim for untouched nodes and rebuilt only where new edges
// landed. The result is byte-identical to buildSnapshot on the same
// graph; only the work differs — O(copy + new edges) instead of a full
// repack with a per-node sort.
func (g *Graph) patchSnapshot(b *freezeBase) *Snapshot {
	obs.Inc("graph.freeze.deltas")
	old := b.snap
	newEdges := g.Edges[b.edges:]
	// Every added edge occupies exactly two incidence slots (a self-loop
	// takes both in one row), and no old slot disappeared.
	slots := len(old.edge) + 2*len(newEdges)
	if g.N >= math.MaxInt32 || slots >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: Freeze: graph too large for CSR snapshot (%d nodes, %d incidence slots)", g.N, slots))
	}
	// extra[u] = incidence slots node u gained since the base.
	extra := make([]int32, g.N)
	for _, e := range newEdges {
		extra[e.U]++
		extra[e.V]++
	}
	s := &Snapshot{
		n:      g.N,
		off:    make([]int32, g.N+1),
		edge:   make([]int32, slots),
		nbr:    make([]int32, slots),
		caps:   make([]float64, slots),
		nbrOff: make([]int32, g.N+1),
	}
	pos := int32(0)
	for u := 0; u < g.N; u++ {
		s.off[u] = pos
		oldDeg := 0
		if u < b.nodes {
			oldDeg = old.Degree(u)
			o := old.off[u]
			copy(s.edge[pos:], old.edge[o:o+int32(oldDeg)])
			copy(s.nbr[pos:], old.nbr[o:o+int32(oldDeg)])
			copy(s.caps[pos:], old.caps[o:o+int32(oldDeg)])
			pos += int32(oldDeg)
		}
		for _, id := range g.adj[u][oldDeg:] {
			e := g.Edges[id]
			s.edge[pos] = int32(id)
			s.nbr[pos] = int32(e.Other(u))
			s.caps[pos] = e.Cap
			pos++
		}
	}
	s.off[g.N] = pos
	// Distinct neighbor table: untouched old rows copy through; rows that
	// gained slots (and all new nodes) rebuild with the same mark/sort the
	// full pack uses, so the bytes come out identical.
	mark := make([]bool, g.N)
	list := make([]int32, 0, slots)
	for u := 0; u < g.N; u++ {
		s.nbrOff[u] = int32(len(list))
		if u < b.nodes && extra[u] == 0 {
			list = append(list, old.nbrList[old.nbrOff[u]:old.nbrOff[u+1]]...)
			continue
		}
		start := len(list)
		for _, w := range s.nbr[s.off[u]:s.off[u+1]] {
			if int(w) == u || mark[w] {
				continue
			}
			mark[w] = true
			list = append(list, w)
		}
		row := list[start:]
		for _, w := range row {
			mark[w] = false
		}
		slices.Sort(row)
	}
	s.nbrOff[g.N] = int32(len(list))
	s.nbrList = list
	return s
}
