package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"physdep/internal/cabling"
	"physdep/internal/floorplan"
	"physdep/internal/placement"
	"physdep/internal/twin"
)

// plansPerFabric is how many change plans the pool holds per twin;
// planSteps is each plan's length (DryRun checks the whole twin once
// before the plan and once after every step).
const (
	plansPerFabric = 4
	planSteps      = 2
)

// network is a placed, cable-planned fabric: the source a twin is built
// from.
type network struct {
	p    *placement.Placement
	plan *cabling.Plan
}

// buildNetwork places and cables corpus variant v of f, the way
// core.EvaluateCtx does before it builds the twin.
func buildNetwork(f fabric, v int) (network, error) {
	t, err := f.topo(v)
	if err != nil {
		return network{}, err
	}
	in := f.input(t, v, 0)
	fl, err := floorplan.NewFloorplan(in.Hall)
	if err != nil {
		return network{}, err
	}
	p, err := placement.Greedy(t, fl, placement.Config{})
	if err != nil {
		return network{}, err
	}
	plan, err := cabling.PlanCables(fl, in.Catalog, p.Demands(nil), cabling.Options{})
	if err != nil {
		return network{}, err
	}
	return network{p, plan}, nil
}

// makePlan draws a well-formed change plan against m: every op applies
// cleanly (DryRun would reject the plan otherwise), and several are
// chosen to break a rule or the schema so plans report violations.
func makePlan(m *twin.Model, rng *rand.Rand) []twin.Op {
	pick := func(es []*twin.Entity) string { return es[rng.IntN(len(es))].ID }
	switches := m.EntitiesOfKind(twin.KindSwitch)
	trays := m.EntitiesOfKind(twin.KindTray)
	racks := m.EntitiesOfKind(twin.KindRack)
	cables := m.EntitiesOfKind(twin.KindCable)
	rels := m.Relations()
	removed := map[string]bool{}
	liveCable := func() string {
		for {
			if id := pick(cables); !removed[id] {
				return id
			}
		}
	}
	var added []string
	var ops []twin.Op
	for s := 0; s < planSteps; s++ {
		switch rng.IntN(5) {
		case 0: // a new cable; one in four lacks a required attribute
			id := fmt.Sprintf("cable-planned-%d", s)
			attrs := map[string]float64{"length_m": float64(5 + rng.IntN(40)),
				"diameter_mm": 3, "bend_radius_mm": 30, "rate_gbps": 100}
			if rng.IntN(4) == 0 {
				delete(attrs, "rate_gbps")
			}
			ops = append(ops, twin.Op{Kind: twin.OpAdd, Entity: &twin.Entity{ID: id, Kind: twin.KindCable, Attrs: attrs}})
			added = append(added, id)
		case 1:
			if len(added) > 0 {
				ops = append(ops, twin.Op{Kind: twin.OpRelate, From: added[len(added)-1], Verb: twin.VerbConnects, To: pick(switches)})
			} else {
				ops = append(ops, twin.Op{Kind: twin.OpRelate, From: liveCable(), Verb: twin.VerbRoutesThrough, To: pick(trays)})
			}
		case 2:
			r := rels[rng.IntN(len(rels))]
			ops = append(ops, twin.Op{Kind: twin.OpUnrelate, From: r.From, Verb: r.Verb, To: r.To})
		case 3:
			id := liveCable()
			removed[id] = true
			ops = append(ops, twin.Op{Kind: twin.OpRemove, ID: id})
		case 4:
			if rng.IntN(2) == 0 {
				ops = append(ops, twin.Op{Kind: twin.OpSetAttr, ID: pick(trays), Attr: "capacity_mm2", Value: float64(rng.IntN(50))})
			} else {
				ops = append(ops, twin.Op{Kind: twin.OpSetAttr, ID: pick(racks), Attr: "ru_capacity", Value: float64(2 + rng.IntN(6))})
			}
		}
	}
	return ops
}

// freshOps copies a plan so a run never mutates the template: DryRun
// adds OpAdd entities to the model as they are.
func freshOps(ops []twin.Op) []twin.Op {
	out := append([]twin.Op(nil), ops...)
	for i, o := range out {
		if o.Entity != nil {
			e := *o.Entity
			e.Attrs = map[string]float64{}
			for k, v := range o.Entity.Attrs {
				e.Attrs[k] = v
			}
			out[i].Entity = &e
		}
	}
	return out
}

// fabricPlans builds the twin of corpus variant v of f once and draws
// its plansPerFabric change plans, seeded by the variant alone so the
// pool (and its digests) does not depend on the workload seed.
func fabricPlans(f fabric, v int) (network, [][]twin.Op, error) {
	nw, err := buildNetwork(f, v)
	if err != nil {
		return network{}, nil, err
	}
	m, err := twin.FromNetwork(nw.p, nw.plan)
	if err != nil {
		return network{}, nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(v), 0x706c616e))
	plans := make([][]twin.Op, plansPerFabric)
	for j := range plans {
		plans[j] = makePlan(m, rng)
	}
	return nw, plans, nil
}

func planID(f fabric, v, j int) string {
	return fmt.Sprintf("twin-dryrun/%s/v%d/plan%d", f.name, v, j)
}

// setupDryRun builds one twin source per evaluate-corpus slot (the
// variant the seed picks) and draws one of its plans into the pass.
func setupDryRun(seed uint64) (*instance, error) {
	rng := rand.New(rand.NewPCG(seed, 0x74776e))
	var ops []op
	for _, f := range evalSlots {
		v := rng.IntN(variants)
		nw, plans, err := fabricPlans(f, v)
		if err != nil {
			return nil, fmt.Errorf("twin-dryrun %s/v%d: %w", f.name, v, err)
		}
		j := rng.IntN(plansPerFabric)
		ops = append(ops, dryRunOp(planID(f, v, j), nw, plans[j]))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &instance{ops: ops, clients: 1}, nil
}

// dryRunOp replays one plan on a scratch twin rebuilt from its source
// (DryRun mutates the model it is given). The latency is the dry run
// alone; the traced run replays it layer by layer via dryRunTraced.
func dryRunOp(id string, nw network, plan []twin.Op) op {
	return op{id: id, run: func(tr *tracer) ([]byte, time.Duration, error) {
		sp := tr.begin("twin.build")
		m, err := twin.FromNetwork(nw.p, nw.plan)
		if err != nil {
			tr.end(sp)
			return nil, 0, fmt.Errorf("%s: %w", id, err)
		}
		if tr != nil {
			tr.endCount(sp, int64(len(m.Relations())))
		}
		ops := freshOps(plan)
		t0 := time.Now()
		var res *twin.DryRunResult
		if tr == nil {
			res, err = twin.DryRun(m, twin.DefaultSchema(), twin.DefaultRules(), ops)
		} else {
			res, err = dryRunTraced(tr, m, ops)
		}
		lat := time.Since(t0)
		if err != nil {
			return nil, lat, fmt.Errorf("%s: %w", id, err)
		}
		out, err := json.Marshal(res)
		return out, lat, err
	}}
}

// dryRunTraced is twin.DryRun rebuilt from the model's public methods,
// with a span around every apply and every re-check.
func dryRunTraced(tr *tracer, m *twin.Model, ops []twin.Op) (*twin.DryRunResult, error) {
	s, rules := twin.DefaultSchema(), twin.DefaultRules()
	res := &twin.DryRunResult{FirstBadStep: -1}
	seen := map[string]bool{}
	sp := tr.begin("twin.check")
	initial := twin.CheckAll(m, s, rules)
	tr.end(sp)
	for _, v := range initial {
		seen[v.String()] = true
	}
	for i, o := range ops {
		sp = tr.begin("twin.apply")
		err := applyOp(m, o)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("twin: dry-run step %d: %w", i, err)
		}
		sp = tr.begin("twin.dryrun_check")
		all := twin.CheckAll(m, s, rules)
		tr.end(sp)
		var fresh []twin.Violation
		for _, v := range all {
			if !seen[v.String()] {
				fresh = append(fresh, v)
				seen[v.String()] = true
			}
		}
		res.ViolationsAfterStep = append(res.ViolationsAfterStep, fresh)
		if len(fresh) > 0 && res.FirstBadStep == -1 {
			res.FirstBadStep = i
		}
		res.Final = all
	}
	if len(ops) == 0 {
		res.Final = initial
	}
	return res, nil
}

func applyOp(m *twin.Model, o twin.Op) error {
	switch o.Kind {
	case twin.OpAdd:
		return m.Add(o.Entity)
	case twin.OpRemove:
		return m.Remove(o.ID)
	case twin.OpRelate:
		return m.Relate(o.From, o.Verb, o.To)
	case twin.OpUnrelate:
		m.Unrelate(o.From, o.Verb, o.To)
		return nil
	case twin.OpSetAttr:
		e := m.Entity(o.ID)
		if e == nil {
			return fmt.Errorf("set attr on unknown entity %q", o.ID)
		}
		e.Attrs[o.Attr] = o.Value
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.Kind)
}

// dryRunPool lists every (fabric, plan) the workload can draw, with its
// expected twin.DryRun result.
func dryRunPool() ([]poolItem, error) {
	var items []poolItem
	for _, f := range evalSlots {
		for v := 0; v < variants; v++ {
			nw, plans, err := fabricPlans(f, v)
			if err != nil {
				return nil, fmt.Errorf("twin-dryrun %s/v%d: %w", f.name, v, err)
			}
			for j, plan := range plans {
				plan := plan
				items = append(items, poolItem{id: planID(f, v, j), expect: func() ([]byte, error) {
					m, err := twin.FromNetwork(nw.p, nw.plan)
					if err != nil {
						return nil, err
					}
					res, err := twin.DryRun(m, twin.DefaultSchema(), twin.DefaultRules(), freshOps(plan))
					if err != nil {
						return nil, err
					}
					return json.Marshal(res)
				}})
			}
		}
	}
	return items, nil
}
