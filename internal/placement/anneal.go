package placement

import (
	"context"
	"math/rand/v2"
	"sort"

	"physdep/internal/obs"
	"physdep/internal/solver"
	"physdep/internal/units"
)

// annealState adapts a Placement to solver.Annealable. Moves swap the
// floor slots of two logical racks, or relocate a rack to a free slot;
// the objective is total cable length in meters.
type annealState struct {
	p           *Placement
	edgesOfRack [][]int // live edge IDs incident to each logical rack, ascending
	freeSlots   []int
	idScratch   []int // reused by affectedEdges
}

func newAnnealState(p *Placement) *annealState {
	s := &annealState{p: p, edgesOfRack: make([][]int, p.NumRacks())}
	for _, e := range p.Topo.Edges {
		if e.U == -1 {
			continue
		}
		ra, rb := p.RackOfSwitch[e.U], p.RackOfSwitch[e.V]
		if ra == rb {
			continue // intra-rack cables have fixed length; irrelevant to moves
		}
		s.edgesOfRack[ra] = append(s.edgesOfRack[ra], e.ID)
		s.edgesOfRack[rb] = append(s.edgesOfRack[rb], e.ID)
	}
	for slot, used := range p.slotUsed {
		if !used {
			s.freeSlots = append(s.freeSlots, slot)
		}
	}
	return s
}

// lengthOfEdges sums current route lengths of the given edge IDs. The
// IDs arrive sorted and deduplicated, so the float summation order is
// fixed — map-order summation here used to make annealing runs differ in
// the last ulp, which cascades into different accept/reject decisions.
func (s *annealState) lengthOfEdges(ids []int) units.Meters {
	var total units.Meters
	for _, id := range ids {
		total += s.p.EdgeRoute(id).Length
	}
	return total
}

// affectedEdges returns the edges incident to the given racks, ascending
// and deduplicated (an edge between two moved racks appears once), in a
// buffer reused across proposals.
func (s *annealState) affectedEdges(racks ...int) []int {
	ids := s.idScratch[:0]
	for _, r := range racks {
		ids = append(ids, s.edgesOfRack[r]...)
	}
	sort.Ints(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			uniq = append(uniq, id)
		}
	}
	s.idScratch = ids
	return uniq
}

// Propose implements solver.Annealable.
func (s *annealState) Propose(rng *rand.Rand) (float64, func(), bool) {
	p := s.p
	if p.NumRacks() < 2 {
		return 0, nil, false
	}
	ra := rng.IntN(p.NumRacks())
	moveToFree := len(s.freeSlots) > 0 && rng.IntN(4) == 0
	if moveToFree {
		fi := rng.IntN(len(s.freeSlots))
		newSlot := s.freeSlots[fi]
		oldSlot := p.SlotOfRack[ra]
		ids := s.affectedEdges(ra)
		before := s.lengthOfEdges(ids)
		p.SlotOfRack[ra] = newSlot
		after := s.lengthOfEdges(ids)
		p.SlotOfRack[ra] = oldSlot
		delta := float64(after - before)
		return delta, func() {
			p.SlotOfRack[ra] = newSlot
			p.slotUsed[oldSlot] = false
			p.slotUsed[newSlot] = true
			s.freeSlots[fi] = oldSlot
			ru := p.Floor.UsedRU(oldSlot)
			p.Floor.ReleaseRU(oldSlot, ru)
			if err := p.Floor.ReserveRU(newSlot, ru); err != nil {
				panic(err) // free slot must have capacity: invariant breach
			}
		}, true
	}
	rb := rng.IntN(p.NumRacks())
	if rb == ra {
		return 0, nil, false
	}
	ids := s.affectedEdges(ra, rb)
	before := s.lengthOfEdges(ids)
	p.SlotOfRack[ra], p.SlotOfRack[rb] = p.SlotOfRack[rb], p.SlotOfRack[ra]
	after := s.lengthOfEdges(ids)
	p.SlotOfRack[ra], p.SlotOfRack[rb] = p.SlotOfRack[rb], p.SlotOfRack[ra]
	delta := float64(after - before)
	return delta, func() {
		// Swap slots and their RU bookkeeping wholesale.
		sa, sb := p.SlotOfRack[ra], p.SlotOfRack[rb]
		rua, rub := p.Floor.UsedRU(sa), p.Floor.UsedRU(sb)
		p.Floor.ReleaseRU(sa, rua)
		p.Floor.ReleaseRU(sb, rub)
		if err := p.Floor.ReserveRU(sa, rub); err != nil {
			panic(err)
		}
		if err := p.Floor.ReserveRU(sb, rua); err != nil {
			panic(err)
		}
		p.SlotOfRack[ra], p.SlotOfRack[rb] = sb, sa
	}, true
}

// OptimizeCtx improves the placement by simulated annealing, returning
// the cable-length before and after. The placement is modified in place.
//
// ctx is checked between annealing chunks (see solver.AnnealCtx).
// Single-chain annealing mutates p in
// place, so a canceled run leaves p at the last accepted move — a valid,
// typically already-improved placement — and returns an error matching
// physerr.ErrCanceled. Callers that need all-or-nothing semantics under
// cancellation should use OptimizeRestartsCtx, which works on clones.
func OptimizeCtx(ctx context.Context, p *Placement, steps int, seed uint64) (before, after units.Meters, err error) {
	defer obs.Time("placement.optimize")()
	before = p.CableLength()
	st := newAnnealState(p)
	_, err = solver.AnnealCtx(ctx, st, annealConfig(before, steps, seed))
	after = p.CableLength()
	obs.Add("placement.optimize.saved_m", int64(before-after))
	return before, after, err
}

func annealConfig(before units.Meters, steps int, seed uint64) solver.AnnealConfig {
	cfg := solver.AnnealConfig{Steps: steps, T0: float64(before) / 200, T1: 0.05, Seed: seed}
	if cfg.T0 <= cfg.T1 {
		cfg.T0 = cfg.T1 * 10
	}
	return cfg
}

// OptimizeRestartsCtx is OptimizeCtx's multi-restart mode: restarts
// independently seeded annealing chains run in parallel, each on its own
// clone of p, and the chain with the shortest final cable length (ties
// broken by lowest chain index) is installed back into p. Chain 0 runs
// the exact schedule OptimizeCtx(ctx, p, steps, seed) would, so the
// result is never worse than single-chain annealing, and the outcome is
// identical for any worker count. restarts <= 1 anneals the single chain
// OptimizeCtx would.
//
// The chains run on clones, so cancellation is all-or-nothing for p: a
// canceled run abandons the clones, leaves p exactly as it was, and
// returns an error matching physerr.ErrCanceled (before and after both
// report the untouched length). A run that completes is byte-identical
// for any context.
func OptimizeRestartsCtx(ctx context.Context, p *Placement, steps int, seed uint64, restarts int) (before, after units.Meters, err error) {
	if restarts <= 1 {
		// Keep the all-or-nothing contract even for the
		// single-chain case: anneal a clone, adopt only on completion.
		defer obs.Time("placement.optimize")()
		before = p.CableLength()
		clone := p.Clone()
		if _, err = solver.AnnealCtx(ctx, newAnnealState(clone), annealConfig(before, steps, seed)); err != nil {
			return before, before, err
		}
		p.adopt(clone)
		after = p.CableLength()
		obs.Add("placement.optimize.saved_m", int64(before-after))
		return before, after, nil
	}
	defer obs.Time("placement.optimize")()
	before = p.CableLength()
	clones := make([]*Placement, restarts)
	states := make([]solver.Annealable, restarts)
	for c := range clones {
		clones[c] = p.Clone()
		states[c] = newAnnealState(clones[c])
	}
	best, _, err := solver.AnnealRestartsCtx(ctx, states, annealConfig(before, steps, seed),
		func(c int) float64 { return float64(clones[c].CableLength()) })
	if err != nil {
		return before, before, err
	}
	p.adopt(clones[best])
	after = p.CableLength()
	obs.Add("placement.optimize.restarts", int64(restarts))
	obs.Add("placement.optimize.saved_m", int64(before-after))
	return before, after, nil
}

// HillClimbOptimize is the zero-temperature ablation baseline.
func HillClimbOptimize(p *Placement, steps int, seed uint64) (before, after units.Meters) {
	before = p.CableLength()
	st := newAnnealState(p)
	solver.HillClimb(st, steps, seed)
	return before, p.CableLength()
}
