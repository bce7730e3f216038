// Package repair simulates post-deployment physical operations (§3.3):
// components fail at realistic rates, a finite technician crew walks to
// them and fixes them, and the repair of one physical unit drains every
// port that shares it — the "unit of repair" tradeoff the paper ties to
// switch radix. Outputs are availability, MTTR, and drained port-hours.
package repair

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/physerr"
	"physdep/internal/units"
)

// ComponentKind classifies failable parts.
type ComponentKind int

const (
	CompSwitch ComponentKind = iota
	CompLinecard
	CompCable
	CompPowerFeed
)

var compKindNames = [...]string{"switch", "linecard", "cable", "powerfeed"}

func (k ComponentKind) String() string {
	if int(k) < len(compKindNames) {
		return compKindNames[k]
	}
	return fmt.Sprintf("component(%d)", int(k))
}

// Component is one failable physical unit.
type Component struct {
	ID   int
	Kind ComponentKind
	// FITs is the failure rate in failures per 10⁹ hours.
	FITs float64
	// LocalizeMinutes is fault-localization time before anyone is
	// dispatched: for cable plant behind passive patch panels this means
	// hunting the right strand; "active"/"intelligent" panels (§5.1)
	// report the failed connection themselves and cut this to ~nothing.
	LocalizeMinutes units.Minutes
	// RepairMinutes is hands-on fix time once a technician arrives.
	RepairMinutes units.Minutes
	// TravelMinutes models dispatch + walking for this component's
	// location.
	TravelMinutes units.Minutes
	// DrainPorts is the unit of repair: how many ports go out of service
	// while this component is failed or being repaired (e.g. a whole
	// linecard for one bad port).
	DrainPorts int
}

// System is the failable plant plus the total port count used for
// availability math.
type System struct {
	Components []Component
	TotalPorts int
}

// SwitchFleet builds the E6 system: nSwitches switches of the given
// radix, each divided into linecards of portsPerCard ports. Linecards
// fail at cardFITs and their repair drains the whole card; switch-level
// failures (psu/fabric) drain the whole switch.
func SwitchFleet(nSwitches, radix, portsPerCard int, cardFITs, switchFITs float64,
	cardRepair, switchRepair, travel units.Minutes) (*System, error) {
	if nSwitches < 1 || radix < 1 || portsPerCard < 1 {
		return nil, fmt.Errorf("repair: nSwitches, radix, portsPerCard must be positive")
	}
	if radix%portsPerCard != 0 {
		return nil, fmt.Errorf("repair: radix %d not divisible by portsPerCard %d", radix, portsPerCard)
	}
	sys := &System{TotalPorts: nSwitches * radix}
	id := 0
	cardsPer := radix / portsPerCard
	for s := 0; s < nSwitches; s++ {
		sys.Components = append(sys.Components, Component{
			ID: id, Kind: CompSwitch, FITs: switchFITs,
			RepairMinutes: switchRepair, TravelMinutes: travel, DrainPorts: radix})
		id++
		for c := 0; c < cardsPer; c++ {
			sys.Components = append(sys.Components, Component{
				ID: id, Kind: CompLinecard, FITs: cardFITs,
				RepairMinutes: cardRepair, TravelMinutes: travel, DrainPorts: portsPerCard})
			id++
		}
	}
	return sys, nil
}

// CablePlant builds a fleet of nCables fiber links routed through patch
// panels. With passive panels, each fault costs localize minutes of
// strand-hunting before repair; with active panels pass ~0. Each cable
// drains one port pair.
func CablePlant(nCables int, fits float64, localize, repairMin, travel units.Minutes) (*System, error) {
	if nCables < 1 {
		return nil, fmt.Errorf("repair: need at least one cable")
	}
	sys := &System{TotalPorts: 2 * nCables}
	for i := 0; i < nCables; i++ {
		sys.Components = append(sys.Components, Component{
			ID: i, Kind: CompCable, FITs: fits,
			LocalizeMinutes: localize, RepairMinutes: repairMin,
			TravelMinutes: travel, DrainPorts: 2,
		})
	}
	return sys, nil
}

// Results aggregates one simulation run.
type Results struct {
	Horizon        units.Hours
	Failures       int
	PortDownHours  float64 // Σ over failures of DrainPorts × outage duration
	Availability   float64 // 1 − PortDownHours / (TotalPorts × Horizon)
	MeanMTTR       units.Minutes
	MaxConcurrent  int // peak simultaneous failures (the mitigation-limit risk)
	WaitedRepairs  int // repairs that queued for a technician
	MeanRepairWait units.Minutes
}

// event is a point in simulated time (hours).
type event struct {
	at   float64
	kind int // 0 = failure, 1 = repair done
	comp int
}

type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// simulateChunkEvents is how many simulation events process between
// context checks in SimulateCtx — cheap enough to vanish into the heap
// work, frequent enough that a deadline stops a runaway horizon fast.
const simulateChunkEvents = 4096

// SimulateCtx runs the failure/repair process for the given horizon with
// a crew of techs technicians. Deterministic per seed.
//
// ctx is checked every simulateChunkEvents events of the discrete-event
// loop. A canceled run discards its partial tallies (they would be
// statistically meaningless truncated mid-horizon) and returns an error
// matching physerr.ErrCanceled; a completed run is byte-identical for any
// context.
func SimulateCtx(ctx context.Context, sys *System, horizon units.Hours, techs int, seed uint64) (Results, error) {
	if techs < 1 {
		return Results{}, fmt.Errorf("repair: need at least one technician")
	}
	if horizon <= 0 {
		return Results{}, fmt.Errorf("repair: horizon must be positive")
	}
	// Entry checkpoint: the loop below only polls between events, so a
	// run whose queue comes up empty (no failure lands inside the
	// horizon) would otherwise sail past an already-canceled context.
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return Results{}, physerr.Canceled(err)
		}
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x4e4a1))
	q := &eventQueue{}
	H := float64(horizon)
	// Schedule first failure of every component.
	for i, c := range sys.Components {
		rate := c.FITs * 1e-9 // failures per hour
		if rate <= 0 {
			continue
		}
		t := rng.ExpFloat64() / rate
		if t < H {
			heap.Push(q, event{at: t, kind: 0, comp: i})
		}
	}
	var res Results
	res.Horizon = horizon
	techFree := make([]float64, techs) // next time each tech is available
	failedAt := make(map[int]float64)  // comp -> failure time
	var mttrSum, waitSum float64
	down := 0
	for processed := 1; q.Len() > 0; processed++ {
		if cancellable && processed%simulateChunkEvents == 0 {
			if err := ctx.Err(); err != nil {
				return Results{}, physerr.Canceled(err)
			}
		}
		ev := heap.Pop(q).(event)
		switch ev.kind {
		case 0: // failure
			c := sys.Components[ev.comp]
			res.Failures++
			failedAt[ev.comp] = ev.at
			down++
			if down > res.MaxConcurrent {
				res.MaxConcurrent = down
			}
			// Dispatch the earliest-free technician.
			best := 0
			for i := 1; i < techs; i++ {
				if techFree[i] < techFree[best] {
					best = i
				}
			}
			start := ev.at
			if techFree[best] > start {
				start = techFree[best]
				res.WaitedRepairs++
				waitSum += (start - ev.at) * 60
			}
			repairHours := float64(c.LocalizeMinutes+c.TravelMinutes+c.RepairMinutes) / 60
			done := start + repairHours
			techFree[best] = done
			heap.Push(q, event{at: done, kind: 1, comp: ev.comp})
		case 1: // repair complete
			c := sys.Components[ev.comp]
			f := failedAt[ev.comp]
			delete(failedAt, ev.comp)
			down--
			end := ev.at
			if end > H {
				end = H // truncate accounting at the horizon
			}
			if end > f {
				res.PortDownHours += float64(c.DrainPorts) * (end - f)
			}
			mttrSum += (ev.at - f) * 60
			// Next failure of this component.
			rate := c.FITs * 1e-9
			if rate > 0 {
				t := ev.at + rng.ExpFloat64()/rate
				if t < H {
					heap.Push(q, event{at: t, kind: 0, comp: ev.comp})
				}
			}
		}
	}
	// Components still failed at the horizon accrue downtime to H.
	for comp, f := range failedAt {
		if f < H {
			res.PortDownHours += float64(sys.Components[comp].DrainPorts) * (H - f)
		}
	}
	if res.Failures > 0 {
		res.MeanMTTR = units.Minutes(mttrSum / float64(res.Failures))
	}
	if res.WaitedRepairs > 0 {
		res.MeanRepairWait = units.Minutes(waitSum / float64(res.WaitedRepairs))
	}
	if sys.TotalPorts > 0 {
		res.Availability = 1 - res.PortDownHours/(float64(sys.TotalPorts)*H)
	}
	return res, nil
}

// SimulateManyCtx averages runs across seeds for tighter estimates. Each
// run checks ctx
// at its event chunks (SimulateCtx), so a sweep of many seeds stops
// within one chunk of one run. The per-run seeds are derived, not
// sequential draws, so the runs a canceled sweep did complete are the
// same runs a full sweep would have produced.
func SimulateManyCtx(ctx context.Context, sys *System, horizon units.Hours, techs, runs int, seed uint64) (Results, error) {
	if runs < 1 {
		return Results{}, fmt.Errorf("repair: runs must be >= 1")
	}
	var agg Results
	for r := 0; r < runs; r++ {
		res, err := SimulateCtx(ctx, sys, horizon, techs, seed+uint64(r)*0x9e3779b97f4a7c15)
		if err != nil {
			return Results{}, err
		}
		agg.Failures += res.Failures
		agg.PortDownHours += res.PortDownHours
		agg.Availability += res.Availability
		agg.MeanMTTR += res.MeanMTTR
		agg.WaitedRepairs += res.WaitedRepairs
		if res.MaxConcurrent > agg.MaxConcurrent {
			agg.MaxConcurrent = res.MaxConcurrent
		}
	}
	agg.Horizon = horizon
	agg.Failures /= runs
	agg.PortDownHours /= float64(runs)
	agg.Availability /= float64(runs)
	agg.MeanMTTR /= units.Minutes(runs)
	agg.WaitedRepairs /= runs
	return agg, nil
}
