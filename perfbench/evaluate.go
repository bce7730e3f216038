package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"physdep/internal/cabling"
	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/costmodel"
	"physdep/internal/deploy"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/topology"
	"physdep/internal/twin"
	"physdep/internal/units"
)

// fabric is one slot of a corpus: a topology family at a fixed size in
// a hall sized to fit it. Its variants differ in generator seed (random
// families) and in evaluation seed and crew size, never in size, so
// every workload seed draws the same cost mix.
type fabric struct {
	name        string
	params      cli.TopoParams
	seeded      bool // the family takes a generator seed
	rows, racks int
}

// variants is how many inputs each corpus slot offers; the committed
// digests cover every one of them.
const variants = 8

// evalSlots is the evaluate corpus: mid-size fabrics of the five
// families the paper compares, 72–128 switches. Seven slots, so the
// median and the p90 tail each fall inside one slot's cost band rather
// than on the boundary between two.
var evalSlots = []fabric{
	{"fattree-k8", cli.TopoParams{Name: "fattree", K: 8, Rate: 100}, false, 6, 12},
	{"leafspine-72", cli.TopoParams{Name: "leafspine", N: 64, Spines: 8, Net: 8, Radix: 16, Rate: 100}, false, 6, 12},
	{"fattree-k10", cli.TopoParams{Name: "fattree", K: 10, Rate: 100}, false, 8, 16},
	{"jellyfish-96", cli.TopoParams{Name: "jellyfish", N: 96, Radix: 16, Net: 8, Rate: 100}, true, 8, 14},
	{"flatrandom-112", cli.TopoParams{Name: "flatrandom", N: 112, Radix: 16, Net: 8, Rate: 100}, true, 8, 16},
	{"xpander-117", cli.TopoParams{Name: "xpander", D: 8, Lift: 13, Radix: 16, Rate: 100}, true, 9, 16},
	{"jellyfish-128", cli.TopoParams{Name: "jellyfish", N: 128, Radix: 16, Net: 8, Rate: 100}, true, 10, 16},
}

// annealSlots is the anneal corpus: small fabrics (36–49 switches) where
// simulated-annealing placement, not the twin, dominates an evaluation.
var annealSlots = []fabric{
	{"fattree-k6", cli.TopoParams{Name: "fattree", K: 6, Rate: 100}, false, 4, 12},
	{"leafspine-36", cli.TopoParams{Name: "leafspine", N: 32, Spines: 4, Net: 4, Radix: 8, Rate: 100}, false, 4, 12},
	{"jellyfish-40", cli.TopoParams{Name: "jellyfish", N: 40, Radix: 12, Net: 6, Rate: 100}, true, 4, 12},
	{"xpander-49", cli.TopoParams{Name: "xpander", D: 6, Lift: 7, Radix: 10, Rate: 100}, true, 4, 14},
	{"flatrandom-40", cli.TopoParams{Name: "flatrandom", N: 40, Radix: 12, Net: 6, Rate: 100}, true, 4, 12},
	{"jellyfish-48", cli.TopoParams{Name: "jellyfish", N: 48, Radix: 12, Net: 6, Rate: 100}, true, 4, 14},
	{"flatrandom-48", cli.TopoParams{Name: "flatrandom", N: 48, Radix: 12, Net: 6, Rate: 100}, true, 4, 14},
}

// Annealing knobs of the anneal workload. Restarts is fixed rather than
// read from the host so the committed digests hold on any machine; the
// chains run in parallel, so it is also the fan-out (≤ nproc on the
// 2-CPU hosts the benchmark targets).
const (
	annealSteps    = 12000
	annealRestarts = 2
)

func (f fabric) topo(v int) (*topology.Topology, error) {
	p := f.params
	if f.seeded {
		p.Seed = uint64(101 + v)
	}
	return cli.BuildTopology(p)
}

func (f fabric) input(t *topology.Topology, v, steps int) core.Input {
	in := core.DefaultInput(t, floorplan.DefaultHall(f.rows, f.racks))
	in.Seed = uint64(1 + v)
	in.Techs = 6 + v%4
	if steps > 0 {
		in.PlacementSteps = steps
		in.PlacementRestarts = annealRestarts
	}
	return in
}

func itemID(workload string, f fabric, v int) string {
	return fmt.Sprintf("%s/%s/v%d", workload, f.name, v)
}

// corpus returns the slots and annealing steps of the evaluate or anneal
// workload.
func corpus(workload string) ([]fabric, int) {
	if workload == "anneal" {
		return annealSlots, annealSteps
	}
	return evalSlots, 0
}

// setupEvaluate builds the seeded corpus for evaluate (two variants of
// every slot) or anneal (one variant of every slot, with annealing).
func setupEvaluate(workload string, seed uint64) (*instance, error) {
	slots, steps := corpus(workload)
	perSlot := 2
	if steps > 0 {
		perSlot = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x6576616c))
	var ops []op
	for _, f := range slots {
		for _, v := range rng.Perm(variants)[:perSlot] {
			t, err := f.topo(v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", itemID(workload, f, v), err)
			}
			ops = append(ops, evaluateOp(itemID(workload, f, v), f.input(t, v, steps)))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &instance{ops: ops, clients: 1}, nil
}

// evaluateOp scores one design. Each call gets a fresh copy of the
// topology, so the graph freeze is paid per evaluation as it is for a
// design scored once. The untraced run calls core.EvaluateCtx; the
// traced run calls the layers in its order through evaluateTraced.
func evaluateOp(id string, in core.Input) op {
	return op{id: id, run: func(tr *tracer) ([]byte, time.Duration, error) {
		in := in
		in.Topo = in.Topo.CloneTopology()
		t0 := time.Now()
		var rep *core.Report
		var err error
		if tr == nil {
			rep, err = core.EvaluateCtx(context.Background(), in)
		} else {
			rep, err = evaluateTraced(context.Background(), tr, in)
		}
		lat := time.Since(t0)
		if err != nil {
			return nil, lat, fmt.Errorf("%s: %w", id, err)
		}
		out, err := json.Marshal(rep)
		return out, lat, err
	}}
}

// evaluateTraced is core.EvaluateCtx with a span around every layer it
// calls, in the same order and with the same arguments, so its report
// is byte-identical (the committed digests and the package tests hold
// it to that). graph.freeze is split out of topology.stats by freezing
// first; the kernels reuse the frozen snapshot.
func evaluateTraced(ctx context.Context, tr *tracer, in core.Input) (*core.Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Catalog == nil {
		in.Catalog = cabling.DefaultCatalog()
	}
	if in.Model == nil {
		in.Model = costmodel.Default()
	}
	if in.Techs == 0 {
		in.Techs = 8
	}
	root := tr.begin("core.evaluate")
	defer tr.end(root)

	f, err := floorplan.NewFloorplan(in.Hall)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("placement.greedy")
	p, err := placement.Greedy(in.Topo, f, placement.Config{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if in.PlacementSteps > 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = tr.begin("placement.anneal")
		_, _, err := placement.OptimizeRestartsCtx(ctx, p, in.PlacementSteps, in.Seed, in.PlacementRestarts)
		runtime.ReadMemStats(&m1)
		tr.endCount(sp, int64(m1.Mallocs-m0.Mallocs))
		if err != nil {
			return nil, err
		}
	}

	sp = tr.begin("cabling.plan")
	plan, err := cabling.PlanCables(f, in.Catalog, p.Demands(in.ExtraLoss), cabling.Options{})
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	tr.endCount(sp, int64(len(plan.Cables)))

	sp = tr.begin("deploy.build")
	dp := deploy.Build(p, plan, in.Model, deploy.BuildOptions{Prebundle: in.Prebundle})
	tr.endCount(sp, int64(len(dp.Tasks)))
	sp = tr.begin("deploy.execute")
	sched, err := deploy.ExecuteCtx(ctx, dp, in.Model, f, deploy.ExecOptions{Techs: in.Techs, Seed: in.Seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("twin.build")
	model, err := twin.FromNetwork(p, plan)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	tr.endCount(sp, int64(len(model.Relations())))
	sp = tr.begin("twin.check")
	violations := twin.CheckAll(model, twin.DefaultSchema(), twin.DefaultRules())
	tr.end(sp)

	rep := &core.Report{Name: in.Topo.Name}
	if err := abstractTraced(ctx, tr, in, rep); err != nil {
		return nil, err
	}
	rep.Cabling = plan.Summarize()
	rep.Bundleability = plan.BundleabilityScore(4)
	rep.CableCapex = rep.Cabling.MaterialCost
	capex, err := in.Model.NetworkCapex(in.Topo, plan, 0, 0)
	if err != nil {
		return nil, err
	}
	rep.SwitchCapex = capex.Switches
	rep.TotalCapex = capex.Total
	rep.TimeToDeploy = sched.Makespan.Hours()
	rep.LaborCost = sched.LaborCost(in.Model)
	if sched.LaborMinutes > 0 {
		rep.WalkFraction = float64(sched.WalkMinutes) / float64(sched.LaborMinutes)
	}
	rep.FirstPassYield = sched.FirstPassYield()
	rep.Reworks = sched.Reworks
	rep.StrandedCost = in.Model.StrandedCost(in.Topo.Servers(), rep.TimeToDeploy)
	rep.TrayPeakUtil = rep.Cabling.PeakTrayUtil
	rep.TwinViolations = len(violations)
	for _, v := range violations {
		if len(v.Rule) >= 7 && v.Rule[:7] == "schema:" {
			rep.OutOfEnvelope = true
		}
	}
	rates := map[units.Gbps]bool{}
	radixes := map[int]bool{}
	for _, n := range in.Topo.Nodes {
		rates[n.Rate] = true
		radixes[n.Radix] = true
	}
	rep.DiversityRates = len(rates)
	rep.DiversityRadixs = len(radixes)
	return rep, nil
}

// abstractTraced mirrors the report's abstract-stats phase: the spectral
// gap draws from the shared stream before the bisection estimate.
func abstractTraced(ctx context.Context, tr *tracer, in core.Input, rep *core.Report) error {
	sp := tr.begin("graph.freeze")
	in.Topo.Freeze()
	tr.end(sp)
	st, err := statsTraced(ctx, tr, in.Topo)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(in.Seed, in.Seed^0xab5))
	sp = tr.begin("topology.spectral")
	gap := in.Topo.SpectralGap(200, rng)
	tr.end(sp)
	sp = tr.begin("topology.bisection")
	bisect, err := in.Topo.BisectionEstimateCtx(ctx, 4, rng)
	tr.end(sp)
	if err != nil {
		return err
	}
	rep.Abstract = core.AbstractStats{
		Switches:    st.Switches,
		Links:       st.Links,
		Servers:     st.Servers,
		ToRDiameter: st.ToRDiam,
		ToRMeanHops: st.ToRMean,
		SpectralGap: gap,
		BisectionGb: bisect,
	}
	return nil
}

func statsTraced(ctx context.Context, tr *tracer, t *topology.Topology) (topology.Stats, error) {
	sp := tr.begin("topology.stats")
	defer tr.end(sp)
	return t.BasicStatsCtx(ctx)
}

// evaluatePool lists every input the evaluate or anneal workload can
// draw, with its expected output from core.EvaluateCtx.
func evaluatePool(workload string) []poolItem {
	slots, steps := corpus(workload)
	var items []poolItem
	for _, f := range slots {
		for v := 0; v < variants; v++ {
			f, v := f, v
			items = append(items, poolItem{id: itemID(workload, f, v), expect: func() ([]byte, error) {
				t, err := f.topo(v)
				if err != nil {
					return nil, err
				}
				rep, err := core.EvaluateCtx(context.Background(), f.input(t, v, steps))
				if err != nil {
					return nil, err
				}
				return json.Marshal(rep)
			}})
		}
	}
	return items
}
