package lifecycle

import (
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/costmodel"
	"physdep/internal/graph"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/solver"
	"physdep/internal/topology"
	"physdep/internal/units"
)

// This file is the multi-step expansion planner (DESIGN.md §14): given a
// fabric, a growth schedule, and per-action costs, it searches — via
// internal/solver — over rewire choices (which live links each added ToR
// splices) and work ordering (the crew's route across the floor) for a
// cheap feasible plan, and returns the plan as typed steps with
// cumulative labor, cable, and downtime. Stage-by-stage evaluation rides
// graph.Freeze's delta path: trunk-only stages patch the previous CSR
// snapshot instead of repacking it (csr.go), which is what makes long
// schedules affordable.

// GrowthStage is one step of a growth schedule. AddToRs installs new
// switches by live splicing (the Jellyfish/Xpander incremental
// procedure: every add breaks existing links). AddTrunks adds capacity
// without touching any live link: a parallel trunk on an existing pair,
// terminated on ports reclaimed from the server side — the
// additions-only action that keeps the CSR snapshot patchable.
type GrowthStage struct {
	AddToRs   int
	AddTrunks int
}

// FloorModel places switches on a rack grid so the planner can price
// walking and cable runs. Switch id lives in rack id/ToRsPerRack; racks
// fill a Rows×Cols grid in row-major order at RackPitch spacing, and
// distances are aisle (Manhattan) distances. EndSlack is the per-end
// dressing allowance added to every cable run.
type FloorModel struct {
	ToRsPerRack int
	Rows, Cols  int
	RackPitch   units.Meters
	EndSlack    units.Meters
}

func (f FloorModel) racks() int          { return f.Rows * f.Cols }
func (f FloorModel) rackOf(node int) int { return node / f.ToRsPerRack }

// dist is the aisle distance between two racks.
func (f FloorModel) dist(r1, r2 int) units.Meters {
	dr := r1/f.Cols - r2/f.Cols
	if dr < 0 {
		dr = -dr
	}
	dc := r1%f.Cols - r2%f.Cols
	if dc < 0 {
		dc = -dc
	}
	return f.RackPitch * units.Meters(dr+dc)
}

// ActionCosts prices the planner's physical actions. Rewire covers one
// whole splice — break the live link, re-terminate both freed ends —
// priced once per the ExpansionStep contract; NewLink prices a
// connection on previously-free ports; FloorVisit is the fixed cost of
// entering a rack (open, ground, close out). RewireDowntime is the
// window the broken link is dark.
type ActionCosts struct {
	InstallToR          units.Minutes
	Rewire              units.Minutes
	NewLink             units.Minutes
	FloorVisit          units.Minutes
	RewireDowntime      units.Minutes
	WalkMetersPerMinute float64
}

// DefaultActionCosts derives planner prices from the labor book: a
// rewire is three jumper-moves of care plus four connector ends (two
// cables re-terminated), matching how E3 prices expander splices.
func DefaultActionCosts(m *costmodel.Model) ActionCosts {
	return ActionCosts{
		InstallToR:          m.InstallSwitch,
		Rewire:              m.JumperMove*3 + m.ConnectEnd*4,
		NewLink:             m.ConnectEnd * 2,
		FloorVisit:          5,
		RewireDowntime:      m.JumperMove * 3,
		WalkMetersPerMinute: m.WalkMetersPerMinute,
	}
}

// PlannerConfig parameterizes a planning run. AnnealSteps and Restarts
// drive the work-ordering search (0 steps keeps the schedule order — the
// naive baseline E24 compares against); RewireTries is the hill-climb
// budget per added ToR for choosing which live links to splice (≤ 1
// takes the first random legal set). Seed fixes every random stream, so
// a config plans identically on every run and worker count.
type PlannerConfig struct {
	Stages      []GrowthStage
	Floor       FloorModel
	Costs       ActionCosts
	AnnealSteps int
	Restarts    int
	RewireTries int
	Seed        uint64
}

// maxPlannerAdds bounds schedule size well past any experiment while
// keeping overflow arithmetic trivially safe.
const maxPlannerAdds = 1 << 16

// Validate checks the schedule, floor, and search knobs; errors wrap the
// physerr sentinels per the DESIGN.md §8 boundary contract.
func (c PlannerConfig) Validate() error {
	if len(c.Stages) == 0 {
		return physerr.OutOfRange("lifecycle: planner needs at least one growth stage")
	}
	if len(c.Stages) > maxPlannerAdds {
		return physerr.OutOfRange("lifecycle: %d growth stages exceeds the %d bound", len(c.Stages), maxPlannerAdds)
	}
	total := 0
	for i, st := range c.Stages {
		if st.AddToRs < 0 || st.AddTrunks < 0 {
			return physerr.OutOfRange("lifecycle: stage %d has negative counts (%+v)", i, st)
		}
		if st.AddToRs == 0 && st.AddTrunks == 0 {
			return physerr.OutOfRange("lifecycle: stage %d adds nothing", i)
		}
		total += st.AddToRs + st.AddTrunks
	}
	if total > maxPlannerAdds {
		return physerr.OutOfRange("lifecycle: schedule adds %d units, bound is %d", total, maxPlannerAdds)
	}
	f := c.Floor
	if f.ToRsPerRack < 1 || f.Rows < 1 || f.Cols < 1 {
		return physerr.OutOfRange("lifecycle: floor model needs positive ToRsPerRack/Rows/Cols, got %+v", f)
	}
	if f.RackPitch <= 0 || f.EndSlack < 0 {
		return physerr.OutOfRange("lifecycle: floor pitch must be positive and slack non-negative, got %+v", f)
	}
	cc := c.Costs
	if cc.InstallToR < 0 || cc.Rewire < 0 || cc.NewLink < 0 || cc.FloorVisit < 0 || cc.RewireDowntime < 0 {
		return physerr.OutOfRange("lifecycle: action costs must be non-negative, got %+v", cc)
	}
	if cc.WalkMetersPerMinute <= 0 {
		return physerr.OutOfRange("lifecycle: walk pace must be positive, got %v", cc.WalkMetersPerMinute)
	}
	if c.AnnealSteps < 0 || c.AnnealSteps > 1<<20 || c.Restarts < 0 || c.Restarts > 1<<10 ||
		c.RewireTries < 0 || c.RewireTries > 1<<20 {
		return physerr.OutOfRange("lifecycle: search knobs out of range (steps=%d restarts=%d tries=%d)",
			c.AnnealSteps, c.Restarts, c.RewireTries)
	}
	return nil
}

// SpliceChooser selects and applies `need` live-link splices onto newID:
// it must pick live edges not incident or adjacent to newID, with
// pairwise-disjoint endpoints, satisfying the grower's legal predicate;
// for each it breaks the edge and terminates both freed ports on newID,
// returning the rewire records. The planner supplies the implementation
// (floor-aware hill-climb); growers supply family legality.
type SpliceChooser func(t *topology.Topology, newID, need int, legal func(graph.Edge) bool) ([]topology.Rewire, error)

// Grower adds one ToR to a working fabric, delegating the choice of
// which live links to splice to the planner's chooser. i is the global
// add index across the whole schedule (Xpander uses it to round-robin
// meta-nodes).
type Grower interface {
	Label() string
	AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error)
}

// JellyfishGrower grows a Jellyfish: any live link is a legal splice.
type JellyfishGrower struct {
	Cfg topology.JellyfishConfig
}

func (g JellyfishGrower) Label() string { return "jellyfish" }

func (g JellyfishGrower) AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error) {
	cfg := g.Cfg
	if cfg.R%2 != 0 {
		return 0, nil, physerr.OutOfRange("lifecycle: jellyfish incremental add needs even R, got %d", cfg.R)
	}
	id := t.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: cfg.K, Rate: cfg.Rate,
		ServerPorts: cfg.K - cfg.R, Pod: -1, Label: fmt.Sprintf("tor-new%d", t.N)})
	rewires, err := choose(t, id, cfg.R/2, func(graph.Edge) bool { return true })
	return id, rewires, err
}

// XpanderGrower grows an Xpander: add i lands in meta-node i mod (D+1),
// and only links between two other meta-nodes may be spliced.
type XpanderGrower struct {
	Cfg topology.XpanderConfig
}

func (g XpanderGrower) Label() string { return "xpander" }

func (g XpanderGrower) AddToR(t *topology.Topology, i int, choose SpliceChooser) (int, []topology.Rewire, error) {
	cfg := g.Cfg
	m := i % (cfg.D + 1)
	id := t.AddSwitch(topology.Node{Role: topology.RoleToR, Radix: cfg.D + cfg.ServerPorts, Rate: cfg.Rate,
		ServerPorts: cfg.ServerPorts, Pod: m, Label: fmt.Sprintf("tor-%d-new%d", m, t.N)})
	legal := func(e graph.Edge) bool {
		return t.Nodes[e.U].Pod != m && t.Nodes[e.V].Pod != m
	}
	rewires, err := choose(t, id, cfg.D/2, legal)
	return id, rewires, err
}

// StepKind types the plan's work items.
type StepKind int

const (
	StepFloorVisit StepKind = iota // walk to and enter a rack
	StepInstallToR                 // rack, power, boot the new switch
	StepRewire                     // break one live link, re-terminate both ends
	StepNewLink                    // connect a link on previously-free ports
)

var stepKindNames = [...]string{"visit", "install", "rewire", "newlink"}

func (k StepKind) String() string {
	if int(k) < len(stepKindNames) {
		return stepKindNames[k]
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// PlanStep is one typed work item in execution order.
type PlanStep struct {
	Seq      int
	Stage    int
	Kind     StepKind
	Rack     int
	Minutes  units.Minutes
	Downtime units.Minutes
	Cable    units.Meters
}

// StageReport is the fabric state after a stage plus the cumulative
// physical cost through it — the row shape E23 prints.
type StageReport struct {
	Stage    int
	Switches int
	Links    int
	MeanHops float64
	// Cumulative through this stage:
	Rewired     int
	NewLinks    int
	FloorVisits int
	Labor       units.Minutes
	Downtime    units.Minutes
	Cable       units.Meters
	Walk        units.Meters
}

// Plan is a fully-ordered expansion plan with totals.
type Plan struct {
	Fabric      string
	Steps       []PlanStep
	Stages      []StageReport
	AddedToRs   int
	Trunks      int
	Rewired     int
	NewLinks    int
	FloorVisits int
	Labor       units.Minutes
	Downtime    units.Minutes
	Cable       units.Meters
	Walk        units.Meters
}

// plannerSeedMix decorrelates the planner's PCG seed words ("plan").
const plannerSeedMix uint64 = 0x706c616e

// workOrder is one schedulable unit: a ToR install with its rewires, or
// one trunk. racks lists the distinct racks the crew must enter,
// ascending.
type workOrder struct {
	stage          int
	install        bool
	newID          int
	rewires        []topology.Rewire
	trunkU, trunkV int
	racks          []int
}

// PlanGrowthCtx plans cfg's schedule for the topology using the grower's
// family rules. The input topology is cloned and never mutated.
//
// Cancellation is checked on entry,
// between stages, inside each stage's all-pairs sweep, and inside the
// ordering anneal. A canceled run returns an error matching
// physerr.ErrCanceled and commits nothing — the caller's topology is
// untouched either way (the planner works on a clone). A run that
// completes is byte-identical for any worker count and whether obs
// collection is on or off.
func PlanGrowthCtx(ctx context.Context, t *topology.Topology, g Grower, cfg PlannerConfig) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, physerr.Canceled(err)
	}
	totalToRs := t.N
	for _, st := range cfg.Stages {
		totalToRs += st.AddToRs
	}
	if need := (totalToRs + cfg.Floor.ToRsPerRack - 1) / cfg.Floor.ToRsPerRack; need > cfg.Floor.racks() {
		return nil, physerr.Capacity("lifecycle: schedule ends at %d switches needing %d racks, floor has %d",
			totalToRs, need, cfg.Floor.racks())
	}
	defer obs.Time("lifecycle.plan")()

	work := t.CloneTopology()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^plannerSeedMix))
	var orders []workOrder
	stageStats := make([]StageReport, len(cfg.Stages))
	addIdx := 0
	for si, st := range cfg.Stages {
		if err := ctx.Err(); err != nil {
			return nil, physerr.Canceled(err)
		}
		for k := 0; k < st.AddToRs; k++ {
			chooser := newSpliceChooser(cfg, rng, par.SeedAt(cfg.Seed^plannerSeedMix, addIdx))
			id, rewires, err := g.AddToR(work, addIdx, chooser)
			if err != nil {
				return nil, fmt.Errorf("lifecycle: stage %d add %d: %w", si, addIdx, err)
			}
			orders = append(orders, makeToROrder(si, id, rewires, cfg.Floor))
			addIdx++
		}
		for k := 0; k < st.AddTrunks; k++ {
			o, err := addTrunk(work, si, rng, cfg.Floor)
			if err != nil {
				return nil, fmt.Errorf("lifecycle: stage %d trunk: %w", si, err)
			}
			orders = append(orders, o)
		}
		// Stage evaluation freezes the working graph: a trunk-only stage
		// rides the CSR delta path, a splice stage forces a full repack.
		ps, err := work.AllPairsStatsCtx(ctx, nil)
		if err != nil {
			return nil, err
		}
		stageStats[si] = StageReport{
			Stage:    si,
			Switches: work.N,
			Links:    work.NumEdges(),
			MeanHops: ps.MeanHops,
		}
	}

	seq, err := orderWork(ctx, orders, cfg)
	if err != nil {
		return nil, err
	}
	plan := emitPlan(g.Label(), orders, seq, stageStats, cfg)
	if obs.Enabled() {
		obs.Add("lifecycle.plan.orders", int64(len(orders)))
		obs.Add("lifecycle.plan.rewires", int64(plan.Rewired))
		obs.Add("lifecycle.plan.visits", int64(plan.FloorVisits))
	}
	return plan, nil
}

// makeToROrder bundles one ToR install with its rewires and the distinct
// racks to visit: the new ToR's rack plus both endpoints of every
// broken link.
func makeToROrder(stage, newID int, rewires []topology.Rewire, f FloorModel) workOrder {
	o := workOrder{stage: stage, install: true, newID: newID, rewires: rewires}
	o.racks = distinctRacks(f, append(rewireNodes(rewires), newID))
	return o
}

func rewireNodes(rewires []topology.Rewire) []int {
	out := make([]int, 0, 2*len(rewires))
	for _, rw := range rewires {
		out = append(out, rw.A, rw.B)
	}
	return out
}

// distinctRacks maps nodes to their racks, deduplicated and ascending —
// the deterministic per-order visit list.
func distinctRacks(f FloorModel, nodes []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, n := range nodes {
		r := f.rackOf(n)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	// Insertion sort: visit lists are tiny (≤ R/2·2 + 1 racks).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// addTrunk performs one pure-addition capacity augment: a parallel trunk
// on a live pair whose endpoints can each reclaim one server-side port.
// No live link is touched and no edge is removed, so the next Freeze
// patches instead of repacking.
func addTrunk(t *topology.Topology, stage int, rng *rand.Rand, f FloorModel) (workOrder, error) {
	var elig []int
	for _, e := range t.Edges {
		if e.U == -1 || e.U == e.V {
			continue
		}
		if t.Nodes[e.U].ServerPorts < 1 || t.Nodes[e.V].ServerPorts < 1 {
			continue
		}
		elig = append(elig, e.ID)
	}
	if len(elig) == 0 {
		return workOrder{}, physerr.Infeasible("no link pair has reclaimable ports for a trunk")
	}
	e := t.Edges[elig[rng.IntN(len(elig))]]
	t.Nodes[e.U].ServerPorts--
	t.Nodes[e.V].ServerPorts--
	t.Link(e.U, e.V)
	o := workOrder{stage: stage, trunkU: e.U, trunkV: e.V}
	o.racks = distinctRacks(f, []int{e.U, e.V})
	return o, nil
}

// spliceState is the Annealable over one add's splice choice: swap a
// chosen candidate edge for another while keeping endpoint disjointness,
// minimizing the floor cost of the visit set. Used with solver.HillClimb
// under the per-add RewireTries budget.
type spliceState struct {
	t       *topology.Topology
	cand    []int
	chosen  []int
	newRack int
	floor   FloorModel
	costs   ActionCosts
	cur     float64
}

// cost prices a chosen set's floor work: one visit per distinct rack
// (endpoints plus the new ToR's rack) and the walk out from the new rack
// to each. Accumulation order follows the chosen slice, so the float sum
// is deterministic.
func (s *spliceState) cost(chosen []int) float64 {
	seen := map[int]bool{s.newRack: true}
	visits := 1
	walk := units.Meters(0)
	for _, id := range chosen {
		e := s.t.Edges[id]
		for _, n := range [2]int{e.U, e.V} {
			r := s.floor.rackOf(n)
			if !seen[r] {
				seen[r] = true
				visits++
				walk += s.floor.dist(s.newRack, r)
			}
		}
	}
	return float64(visits)*float64(s.costs.FloorVisit) + float64(walk)/s.costs.WalkMetersPerMinute
}

func (s *spliceState) Propose(rng *rand.Rand) (float64, func(), bool) {
	if len(s.chosen) == 0 || len(s.cand) == 0 {
		return 0, nil, false
	}
	i := rng.IntN(len(s.chosen))
	repl := s.cand[rng.IntN(len(s.cand))]
	e := s.t.Edges[repl]
	for k, id := range s.chosen {
		if id == repl {
			return 0, nil, false
		}
		if k == i {
			continue
		}
		o := s.t.Edges[id]
		if o.U == e.U || o.U == e.V || o.V == e.U || o.V == e.V {
			return 0, nil, false
		}
	}
	next := append([]int(nil), s.chosen...)
	next[i] = repl
	delta := s.cost(next) - s.cur
	return delta, func() {
		s.chosen[i] = repl
		s.cur += delta
	}, true
}

// newSpliceChooser builds the planner's SpliceChooser: enumerate legal
// candidate edges, take a random endpoint-disjoint set, optionally
// hill-climb it toward fewer and closer racks, then apply the splices.
// rng drives the initial pick (shared planner stream, consumed
// identically whatever RewireTries is); the hill-climb runs on its own
// per-add seed so changing the budget cannot shift later adds' streams.
func newSpliceChooser(cfg PlannerConfig, rng *rand.Rand, climbSeed uint64) SpliceChooser {
	return func(t *topology.Topology, newID, need int, legal func(graph.Edge) bool) ([]topology.Rewire, error) {
		var cand []int
		for _, e := range t.Edges {
			if e.U == -1 || e.U == newID || e.V == newID || e.U == e.V {
				continue
			}
			if t.HasEdgeBetween(newID, e.U) || t.HasEdgeBetween(newID, e.V) {
				continue
			}
			if !legal(e) {
				continue
			}
			cand = append(cand, e.ID)
		}
		order := append([]int(nil), cand...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		used := map[int]bool{}
		var chosen []int
		for _, id := range order {
			e := t.Edges[id]
			if used[e.U] || used[e.V] {
				continue
			}
			chosen = append(chosen, id)
			used[e.U], used[e.V] = true, true
			if len(chosen) == need {
				break
			}
		}
		if len(chosen) < need {
			return nil, physerr.Infeasible("only %d of %d disjoint splice candidates for new ToR %d",
				len(chosen), need, newID)
		}
		if cfg.RewireTries > 1 {
			st := &spliceState{t: t, cand: cand, chosen: chosen,
				newRack: cfg.Floor.rackOf(newID), floor: cfg.Floor, costs: cfg.Costs}
			st.cur = st.cost(chosen)
			solver.HillClimb(st, cfg.RewireTries, climbSeed)
			chosen = st.chosen
		}
		rewires := make([]topology.Rewire, 0, need)
		for _, id := range chosen {
			e := t.Edges[id]
			a, b := e.U, e.V
			t.RemoveEdge(id)
			t.Link(newID, a)
			t.Link(newID, b)
			rewires = append(rewires, topology.Rewire{A: a, B: b})
		}
		return rewires, nil
	}
}

// orderState is the Annealable over work ordering: swap two orders
// within the same stage (stages are hard sequence points — stage k's
// capacity must exist before stage k+1's evaluation), minimizing the
// crew's route cost.
type orderState struct {
	orders []workOrder
	seq    []int
	// swappable[s] lists seq positions belonging to stage s; only stages
	// with ≥ 2 orders appear.
	swappable [][]int
	stages    []int // keys of swappable, ascending
	floor     FloorModel
	costs     ActionCosts
	cur       float64
}

func (s *orderState) Propose(rng *rand.Rand) (float64, func(), bool) {
	if len(s.stages) == 0 {
		return 0, nil, false
	}
	span := s.swappable[s.stages[rng.IntN(len(s.stages))]]
	i, j := span[rng.IntN(len(span))], span[rng.IntN(len(span))]
	if i == j {
		return 0, nil, false
	}
	s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
	cost := routeCost(s.orders, s.seq, s.floor, s.costs)
	s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
	delta := cost - s.cur
	return delta, func() {
		s.seq[i], s.seq[j] = s.seq[j], s.seq[i]
		s.cur = cost
	}, true
}

// routeCost prices a work sequence's floor overhead: the crew starts at
// rack 0's aisle, visits each order's racks in listed sequence, and a
// rack entered back-to-back is entered once. Minutes = visits·FloorVisit
// + walk/pace.
func routeCost(orders []workOrder, seq []int, f FloorModel, c ActionCosts) float64 {
	visits, walk := routeWalk(orders, seq, f, nil)
	return float64(visits)*float64(c.FloorVisit) + float64(walk)/c.WalkMetersPerMinute
}

// routeWalk simulates the crew route, optionally emitting each rack
// entry via visit(rack, walkFromPrev).
func routeWalk(orders []workOrder, seq []int, f FloorModel, visit func(oi, rack int, walked units.Meters)) (visits int, walk units.Meters) {
	cur := 0   // crew position (rack aisle)
	last := -1 // last rack actually entered
	for _, oi := range seq {
		for _, r := range orders[oi].racks {
			if r == last {
				continue
			}
			d := f.dist(cur, r)
			walk += d
			visits++
			if visit != nil {
				visit(oi, r, d)
			}
			cur, last = r, r
		}
	}
	return visits, walk
}

// orderWork picks the execution sequence: schedule order when
// AnnealSteps is 0, otherwise annealed within stages across Restarts
// parallel chains (deterministic winner), keeping the identity order if
// the search somehow ends worse.
func orderWork(ctx context.Context, orders []workOrder, cfg PlannerConfig) ([]int, error) {
	seq := make([]int, len(orders))
	for i := range seq {
		seq[i] = i
	}
	if cfg.AnnealSteps <= 0 || len(orders) < 2 {
		return seq, nil
	}
	identity := routeCost(orders, seq, cfg.Floor, cfg.Costs)
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	mkState := func() *orderState {
		st := &orderState{orders: orders, seq: append([]int(nil), seq...),
			floor: cfg.Floor, costs: cfg.Costs, cur: identity}
		byStage := map[int][]int{}
		for pos, oi := range st.seq {
			byStage[orders[oi].stage] = append(byStage[orders[oi].stage], pos)
		}
		maxStage := 0
		for s := range byStage {
			if s > maxStage {
				maxStage = s
			}
		}
		st.swappable = make([][]int, maxStage+1)
		for s, span := range byStage {
			if len(span) >= 2 {
				st.swappable[s] = span
				st.stages = append(st.stages, s)
			}
		}
		// byStage iterates non-deterministically; restore ascending order.
		for i := 1; i < len(st.stages); i++ {
			for j := i; j > 0 && st.stages[j] < st.stages[j-1]; j-- {
				st.stages[j], st.stages[j-1] = st.stages[j-1], st.stages[j]
			}
		}
		return st
	}
	states := make([]solver.Annealable, restarts)
	chainStates := make([]*orderState, restarts)
	for c := range states {
		chainStates[c] = mkState()
		states[c] = chainStates[c]
	}
	acfg := solver.AnnealConfig{Steps: cfg.AnnealSteps, T0: identity / 10, T1: 0.01, Seed: cfg.Seed ^ 0x6f726472}
	if acfg.T0 <= 0 {
		acfg.T0 = 1
	}
	best, _, err := solver.AnnealRestartsCtx(ctx, states, acfg, func(c int) float64 {
		return chainStates[c].cur
	})
	if err != nil {
		return nil, err
	}
	if chainStates[best].cur < identity {
		return chainStates[best].seq, nil
	}
	return seq, nil
}

// emitPlan walks the final sequence, emitting typed steps and cumulative
// per-stage totals. Orders stay grouped by stage (the anneal only swaps
// within stages), so stage boundaries in the sequence are contiguous.
func emitPlan(fabric string, orders []workOrder, seq []int, stageStats []StageReport, cfg PlannerConfig) *Plan {
	p := &Plan{Fabric: fabric, Stages: stageStats}
	f, c := cfg.Floor, cfg.Costs
	addStep := func(s PlanStep) {
		s.Seq = len(p.Steps)
		p.Steps = append(p.Steps, s)
		p.Labor += s.Minutes
		p.Downtime += s.Downtime
		p.Cable += s.Cable
	}
	// Pre-compute each order's visit steps keyed by sequence position.
	type visitRec struct {
		rack   int
		walked units.Meters
	}
	visitsByPos := make(map[int][]visitRec, len(orders))
	pos := make(map[int]int, len(seq)) // order index → seq position
	for sp, oi := range seq {
		pos[oi] = sp
	}
	routeWalk(orders, seq, f, func(oi, rack int, walked units.Meters) {
		visitsByPos[pos[oi]] = append(visitsByPos[pos[oi]], visitRec{rack, walked})
	})
	stageWalk := make([]units.Meters, len(stageStats))
	for sp, oi := range seq {
		o := orders[oi]
		for _, v := range visitsByPos[sp] {
			p.FloorVisits++
			p.Walk += v.walked
			stageWalk[o.stage] += v.walked
			addStep(PlanStep{Stage: o.stage, Kind: StepFloorVisit, Rack: v.rack,
				Minutes: c.FloorVisit + units.Minutes(float64(v.walked)/c.WalkMetersPerMinute)})
		}
		if o.install {
			homeRack := f.rackOf(o.newID)
			p.AddedToRs++
			addStep(PlanStep{Stage: o.stage, Kind: StepInstallToR, Rack: homeRack, Minutes: c.InstallToR})
			for _, rw := range o.rewires {
				p.Rewired++
				cable := f.dist(f.rackOf(rw.A), homeRack) + f.dist(f.rackOf(rw.B), homeRack) + 4*f.EndSlack
				addStep(PlanStep{Stage: o.stage, Kind: StepRewire, Rack: homeRack,
					Minutes: c.Rewire, Downtime: c.RewireDowntime, Cable: cable})
			}
		} else {
			p.Trunks++
			p.NewLinks++
			cable := f.dist(f.rackOf(o.trunkU), f.rackOf(o.trunkV)) + 2*f.EndSlack
			addStep(PlanStep{Stage: o.stage, Kind: StepNewLink, Rack: f.rackOf(o.trunkU),
				Minutes: c.NewLink, Cable: cable})
		}
	}
	// Fill cumulative columns stage by stage from the emitted steps.
	for i := range p.Stages {
		p.Stages[i].Rewired, p.Stages[i].NewLinks, p.Stages[i].FloorVisits = 0, 0, 0
		p.Stages[i].Labor, p.Stages[i].Downtime, p.Stages[i].Cable, p.Stages[i].Walk = 0, 0, 0, 0
	}
	for _, s := range p.Steps {
		for si := s.Stage; si < len(p.Stages); si++ {
			st := &p.Stages[si]
			switch s.Kind {
			case StepRewire:
				st.Rewired++
			case StepNewLink:
				st.NewLinks++
			case StepFloorVisit:
				st.FloorVisits++
			}
			st.Labor += s.Minutes
			st.Downtime += s.Downtime
			st.Cable += s.Cable
		}
	}
	var walkSoFar units.Meters
	for i := range p.Stages {
		walkSoFar += stageWalk[i]
		p.Stages[i].Walk = walkSoFar
	}
	return p
}
