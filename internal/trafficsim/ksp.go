package trafficsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"physdep/internal/graph"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// KSPConfig tunes k-shortest-paths routing, the scheme the Jellyfish
// evaluation actually uses (plain ECMP is known to waste expander
// capacity — Harsh et al.'s "Spineless Data Centers" point).
type KSPConfig struct {
	K     int // paths per pair (≤ K kept)
	Slack int // extra hops allowed beyond the pair's shortest distance
	// Chunks is the water-filling granularity: each pair's demand is
	// placed in Chunks equal increments, each on the pair's currently
	// least-loaded path. Higher is smoother and slower. Default 8.
	Chunks int
}

// DefaultKSP mirrors the Jellyfish paper's 8-shortest-paths routing with
// one hop of slack.
func DefaultKSP() KSPConfig { return KSPConfig{K: 8, Slack: 1, Chunks: 8} }

// Bounds on the KSP knobs. Path enumeration is exponential in Slack and
// linear in K·Chunks, so a runaway config must fail fast rather than hang.
const (
	MaxKSPK      = 1 << 12
	MaxKSPSlack  = 64
	MaxKSPChunks = 1 << 16
)

// Validate rejects KSP configs outside the workable envelope. Chunks 0 is
// allowed and means "use the default of 8"; negative values are errors.
func (cfg KSPConfig) Validate() error {
	if cfg.K < 1 || cfg.K > MaxKSPK {
		return physerr.OutOfRange("trafficsim: KSP K must be in [1, %d], got %d", MaxKSPK, cfg.K)
	}
	if cfg.Slack < 0 || cfg.Slack > MaxKSPSlack {
		return physerr.OutOfRange("trafficsim: KSP Slack must be in [0, %d], got %d", MaxKSPSlack, cfg.Slack)
	}
	if cfg.Chunks < 0 || cfg.Chunks > MaxKSPChunks {
		return physerr.OutOfRange("trafficsim: KSP Chunks must be in [0, %d], got %d", MaxKSPChunks, cfg.Chunks)
	}
	return nil
}

// kspScratch is the per-worker reusable state of path enumeration: the
// BFS buffers for the per-destination distance field, the on-path marks,
// and the dedup set with its reusable key buffer. One worker owns one
// scratch at a time (par.ForWorkerCtx), so none of it needs locks.
type kspScratch struct {
	dist   []int
	queue  []int
	onPath []bool
	seen   map[string]bool
	key    []byte
}

func newKSPScratch(n int) *kspScratch {
	return &kspScratch{
		dist:   make([]int, n),
		onPath: make([]bool, n),
		seen:   make(map[string]bool, 16),
		key:    make([]byte, 0, 64),
	}
}

// pathKey encodes a node sequence into the scratch's reused byte buffer.
// The fixed-width encoding is injective, so two distinct paths can never
// collide the way a hash could — dedup semantics match exact comparison.
func (sc *kspScratch) pathKey(nodes []int) []byte {
	sc.key = sc.key[:0]
	for _, u := range nodes {
		sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(u))
	}
	return sc.key
}

// kShortestNodePaths enumerates up to cfg.K node-distinct paths from src
// to dst whose length is at most dist(src,dst)+cfg.Slack, as node
// sequences. Parallel edges between two switches are one logical hop
// here — they are capacity, not extra path diversity — and the router
// spreads each hop's load across them evenly. The DFS is bounded by a
// per-node distance-to-dst check, so the search never wanders. Neighbor
// rows come from the shared CSR snapshot (distinct, ascending — the
// same sequence the old per-call table held), so enumeration order and
// therefore every path set is unchanged.
func kShortestNodePaths(snap *graph.Snapshot, src, dst int, distTo []int, cfg KSPConfig, sc *kspScratch) [][]int {
	if distTo[src] < 0 {
		return nil
	}
	var paths [][]int
	clear(sc.seen)
	cur := []int{src}
	onPath := sc.onPath
	// Rotate neighbor exploration per (src, dst) so different pairs keep
	// different detour sets when K caps the enumeration — otherwise every
	// pair's spill converges on the lowest-numbered intermediates and
	// manufactures hot spots no real traffic-engineering scheme would
	// produce.
	rot := src*31 + dst*17
	var dfs func(u, remaining int)
	dfs = func(u, remaining int) {
		if len(paths) >= cfg.K {
			return
		}
		if u == dst {
			sig := sc.pathKey(cur)
			if !sc.seen[string(sig)] {
				sc.seen[string(sig)] = true
				paths = append(paths, append([]int(nil), cur...))
			}
			return
		}
		onPath[u] = true
		defer func() { onPath[u] = false }()
		un := snap.Neighbors(u)
		n := len(un)
		for i := 0; i < n; i++ {
			w := int(un[(i+rot)%n])
			if onPath[w] || distTo[w] < 0 || distTo[w] > remaining-1 {
				continue
			}
			cur = append(cur, w)
			dfs(w, remaining-1)
			cur = cur[:len(cur)-1]
			if len(paths) >= cfg.K {
				return
			}
		}
	}
	// Shortest paths take priority in the K budget: enumerate with zero
	// slack first, widening only while quota remains. Otherwise a pair
	// could fill its quota with detours and never learn its direct path.
	for s := 0; s <= cfg.Slack && len(paths) < cfg.K; s++ {
		dfs(src, distTo[src]+s)
	}
	return paths
}

// KSPThroughputCtx routes M over up to K near-shortest node paths per pair
// using greedy water-filling (each demand increment takes the path whose
// bottleneck trunk stays coolest — the fluid analogue of MPTCP subflows
// avoiding hot paths), splitting every hop's load evenly across its
// parallel trunk members, and returns the scaling margin α, directly
// comparable to ECMPThroughput. This is the fair way to evaluate
// expander fabrics, which ECMP systematically under-serves.
//
// Internally the expensive phase — one BFS plus up-to-K path enumeration
// per (src,dst) pair — fans out across par.Workers() goroutines, one
// destination per task with per-worker scratch. Load placement stays a
// strictly sequential commit phase in the serial pair order, so the
// returned α is byte-identical for any worker count.
//
// ctx is checked as enumeration tasks are handed out (par contract) and
// between water-filling chunks, so a canceled solve stops within one
// destination BFS or one chunk and returns an error matching
// physerr.ErrCanceled. A solve that completes is byte-identical for any
// context.
func KSPThroughputCtx(ctx context.Context, t *topology.Topology, m Matrix, cfg KSPConfig) (float64, error) {
	tors := t.ToRs()
	if len(tors) != m.N {
		return 0, fmt.Errorf("trafficsim: matrix is %d×%d but topology has %d ToRs", m.N, m.N, len(tors))
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Chunks == 0 {
		cfg.Chunks = 8
	}
	defer obs.Time("trafficsim.ksp")()

	// Phase 1 (parallel): enumerate node paths for every demanding pair,
	// grouped by destination so each task runs one BFS.
	stopEnum := obs.Time("trafficsim.ksp.enumerate")
	type rawPair struct {
		demand float64
		paths  [][]int // node sequences
	}
	perDst := make([][]rawPair, len(tors))
	// The DFS expands nodes far more often than there are nodes, so it
	// walks the graph's frozen CSR snapshot: the packed distinct-neighbor
	// rows replace the per-call sorted-neighbor table this kernel used to
	// build (the dominant alloc source), and every worker shares them.
	snap := t.Freeze()
	scratch := make([]*kspScratch, par.Workers())
	err := par.ForWorkerCtx(ctx, len(tors), func(wk, j int) error {
		sc := scratch[wk]
		if sc == nil {
			sc = newKSPScratch(t.N)
			scratch[wk] = sc
		}
		dst := tors[j]
		sc.queue = t.BFSInto(dst, sc.dist, sc.queue)
		var out []rawPair
		for i, src := range tors {
			d := m.D[i][j]
			if d <= 0 || src == dst {
				continue
			}
			raw := kShortestNodePaths(snap, src, dst, sc.dist, cfg, sc)
			if len(raw) == 0 {
				return fmt.Errorf("trafficsim: no path %d→%d", src, dst)
			}
			out = append(out, rawPair{demand: d, paths: raw})
		}
		perDst[j] = out
		return nil
	})
	stopEnum()
	if err != nil {
		return 0, err
	}

	// Phase 2 (sequential): translate paths to directional trunk indices
	// and water-fill in the fixed pair order. The translated form is four
	// flat arenas — pair → path → hop → parallel dir index, each level an
	// int32 offset range into the next — replacing the old per-hop map
	// cache and nested [][][]int: the water-fill inner loop walks
	// contiguous memory, and translation allocates only the arenas.
	defer obs.Time("trafficsim.ksp.waterfill")()
	var (
		pairDemand  []float64
		pairPathOff = []int32{0} // pair i owns paths [pairPathOff[i], pairPathOff[i+1])
		pathHopOff  = []int32{0} // path p owns hops  [pathHopOff[p], pathHopOff[p+1])
		hopDirOff   = []int32{0} // hop h owns dirs   dirArena[hopDirOff[h]:hopDirOff[h+1]]
		dirArena    []int32
		hopIDs      []int32 // one hop's parallel edge IDs, reused
	)
	for j := range tors {
		for _, rp := range perDst[j] {
			pairDemand = append(pairDemand, rp.demand)
			for _, nodes := range rp.paths {
				for k := 0; k+1 < len(nodes); k++ {
					u, v := nodes[k], nodes[k+1]
					// Collect the parallel trunk members u→v from u's CSR
					// row, sorted ascending — the order EdgesBetween has
					// always returned (removal leaves slots unsorted).
					hopIDs = hopIDs[:0]
					edge, nbr := snap.Row(u)
					for s, w := range nbr {
						if int(w) == v {
							hopIDs = append(hopIDs, edge[s])
						}
					}
					slices.Sort(hopIDs)
					for _, id := range hopIDs {
						dirArena = append(dirArena, int32(graph.DirLoad(int(id), t.Edges[id].U == u)))
					}
					hopDirOff = append(hopDirOff, int32(len(dirArena)))
				}
				pathHopOff = append(pathHopOff, int32(len(hopDirOff)-1))
			}
			pairPathOff = append(pairPathOff, int32(len(pathHopOff)-1))
		}
	}
	if obs.Enabled() {
		obs.Add("trafficsim.ksp.pairs", int64(len(pairDemand)))
		obs.Add("trafficsim.ksp.paths", int64(len(pathHopOff)-1))
	}
	load := make([]float64, 2*len(t.Edges))
	cancellable := ctx.Done() != nil
	for c := 0; c < cfg.Chunks; c++ {
		// One chunk sweeps every pair once; checking between chunks keeps
		// the check count independent of pair count, and a completed fill
		// is identical to a run under context.Background().
		if cancellable {
			if err := ctx.Err(); err != nil {
				return 0, physerr.Canceled(err)
			}
		}
		for pi := range pairDemand {
			f := pairDemand[pi] / float64(cfg.Chunks)
			best, bestCost := int32(-1), 0.0
			for p := pairPathOff[pi]; p < pairPathOff[pi+1]; p++ {
				cost := 0.0
				for h := pathHopOff[p]; h < pathHopOff[p+1]; h++ {
					dirs := dirArena[hopDirOff[h]:hopDirOff[h+1]]
					share := f / float64(len(dirs))
					for _, di := range dirs {
						if load[di]+share > cost {
							cost = load[di] + share
						}
					}
				}
				if best == -1 || cost < bestCost {
					best, bestCost = p, cost
				}
			}
			for h := pathHopOff[best]; h < pathHopOff[best+1]; h++ {
				dirs := dirArena[hopDirOff[h]:hopDirOff[h+1]]
				share := f / float64(len(dirs))
				for _, di := range dirs {
					load[di] += share
				}
			}
		}
	}
	return alphaFromDirectionalLoads(t, load)
}
