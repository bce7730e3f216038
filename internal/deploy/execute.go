package deploy

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand/v2"

	"physdep/internal/costmodel"
	"physdep/internal/floorplan"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/units"
)

// Schedule summarizes a simulated deployment execution.
type Schedule struct {
	Makespan        units.Minutes // wall-clock with Techs working in parallel
	LaborMinutes    units.Minutes // on-floor technician minutes, walking included
	WalkMinutes     units.Minutes // walking component of LaborMinutes
	OffFloorMinutes units.Minutes // prefab line labor
	Reworks         int           // failed validations that needed rework
	Connections     int           // validated links
	ByKind          map[TaskKind]units.Minutes
	TaskStart       []units.Minutes // per original plan task; reworks excluded
}

// FirstPassYield is the observed fraction of connections that validated
// without rework.
func (s Schedule) FirstPassYield() float64 {
	if s.Connections == 0 {
		return 1
	}
	return 1 - float64(s.Reworks)/float64(s.Connections)
}

// LaborCost prices the schedule's total labor (on-floor + prefab).
func (s Schedule) LaborCost(m *costmodel.Model) units.USD {
	return m.LaborCost(s.LaborMinutes + s.OffFloorMinutes)
}

// ExecOptions tunes execution.
type ExecOptions struct {
	Techs int    // crew size (≥ 1)
	Seed  uint64 // drives yield failures
	// YieldOverride, if non-zero, replaces the model's FirstPassYield.
	YieldOverride float64
	// MaxWorkersPerRack caps how many technicians can work at one rack
	// simultaneously (§3.2: "how many people at a time can work on one
	// rack"). 0 means unlimited.
	MaxWorkersPerRack int
}

// executeChunkTasks is how many scheduled tasks run between context
// checks in ExecuteCtx.
const executeChunkTasks = 1024

// ExecuteCtx simulates the plan with a technician crew using
// critical-path list scheduling: ready tasks are dispatched to the
// earliest-available technician, longest-remaining-path first, with
// walking time charged for relocation. Validation failures (per
// first-pass yield) insert rework + revalidate work on the fly.
//
// ctx is checked every executeChunkTasks dispatches of the scheduling
// loop. A canceled run discards the half-built schedule (its makespan and
// labor totals would describe a deployment nobody finished) and returns
// an error matching physerr.ErrCanceled; a completed run is
// byte-identical for any context.
func ExecuteCtx(ctx context.Context, p *Plan, m *costmodel.Model, f *floorplan.Floorplan, opts ExecOptions) (Schedule, error) {
	defer obs.Time("deploy.execute")()
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	if opts.Techs < 1 {
		return Schedule{}, fmt.Errorf("deploy: need at least 1 technician")
	}
	yield := m.FirstPassYield
	if opts.YieldOverride > 0 {
		yield = opts.YieldOverride
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xdeb107))

	// Critical-path priority: longest path (sum of minutes) from each task
	// downstream. Children lists first.
	n := len(p.Tasks)
	children := make([][]int, n)
	indeg := make([]int, n)
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			children[d] = append(children[d], t.ID)
			indeg[t.ID]++
		}
	}
	prio := make([]float64, n)
	for i := n - 1; i >= 0; i-- { // IDs topologically ordered by construction
		longest := 0.0
		for _, c := range children[i] {
			if prio[c] > longest {
				longest = prio[c]
			}
		}
		prio[i] = longest + float64(p.Tasks[i].Minutes)
	}

	// Ready queue ordered by priority desc.
	rq := &readyQueue{prio: prio}
	for i := range p.Tasks {
		if len(p.Tasks[i].Deps) == 0 {
			heap.Push(rq, i)
		}
	}

	type tech struct {
		free units.Minutes
		loc  floorplan.RackLoc
	}
	techs := make([]tech, opts.Techs)
	// Per-rack work slots: with a worker cap, each rack behaves like a
	// small crew of its own — a task must claim the earliest-free slot at
	// its rack in addition to a technician.
	var rackSlots map[floorplan.RackLoc][]units.Minutes
	if opts.MaxWorkersPerRack > 0 {
		rackSlots = map[floorplan.RackLoc][]units.Minutes{}
	}
	sched := Schedule{ByKind: map[TaskKind]units.Minutes{}, TaskStart: make([]units.Minutes, n)}
	done := make([]units.Minutes, n) // finish time per task
	remaining := n

	// Dynamic tasks (rework/revalidate) extend these slices.
	tasks := append([]Task(nil), p.Tasks...)
	extend := func(t Task) int {
		t.ID = len(tasks)
		tasks = append(tasks, t)
		children = append(children, nil)
		done = append(done, 0)
		prio = append(prio, float64(t.Minutes))
		rq.prio = prio
		remaining++
		return t.ID
	}

	cancellable := ctx.Done() != nil
	for dispatched := 0; remaining > 0; dispatched++ {
		if cancellable && dispatched%executeChunkTasks == 0 {
			if err := ctx.Err(); err != nil {
				return Schedule{}, physerr.Canceled(err)
			}
		}
		if rq.Len() == 0 {
			return Schedule{}, fmt.Errorf("deploy: scheduler starved with %d tasks remaining (cycle?)", remaining)
		}
		id := heap.Pop(rq).(int)
		t := tasks[id]
		// Earliest start: max(dep finishes); assign to tech who can start
		// it soonest including walking.
		var depReady units.Minutes
		for _, d := range t.Deps {
			if done[d] > depReady {
				depReady = done[d]
			}
		}
		// Rack-slot gate: the earliest time a worker may stand at this
		// rack.
		rackReady := units.Minutes(0)
		slotIdx := -1
		if rackSlots != nil {
			slots := rackSlots[t.Loc]
			if len(slots) < opts.MaxWorkersPerRack {
				slots = append(slots, 0)
				rackSlots[t.Loc] = slots
			}
			slotIdx = 0
			for i := 1; i < len(slots); i++ {
				if slots[i] < slots[slotIdx] {
					slotIdx = i
				}
			}
			rackReady = slots[slotIdx]
		}
		best, bestStart, bestWalk := -1, units.Minutes(0), units.Minutes(0)
		for i, tc := range techs {
			walk := units.Minutes(float64(f.WalkingDistance(tc.loc, t.Loc)) / m.WalkMetersPerMinute)
			start := tc.free + walk
			if start < depReady {
				start = depReady
			}
			if start < rackReady {
				start = rackReady
			}
			if best == -1 || start < bestStart {
				best, bestStart, bestWalk = i, start, walk
			}
		}
		finish := bestStart + t.Minutes
		techs[best].free = finish
		techs[best].loc = t.Loc
		if slotIdx >= 0 {
			rackSlots[t.Loc][slotIdx] = finish
		}
		done[id] = finish
		if id < n {
			sched.TaskStart[id] = bestStart
		}
		remaining--
		sched.LaborMinutes += t.Minutes + bestWalk
		sched.WalkMinutes += bestWalk
		sched.ByKind[t.Kind] += t.Minutes
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		// Release children.
		for _, c := range children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				heap.Push(rq, c)
			}
		}
		// Yield roll on first-pass validation; revalidations always pass.
		if t.Kind == TaskValidate && !t.Revalidate {
			sched.Connections++
			if rng.Float64() > yield {
				sched.Reworks++
				rw := extend(Task{Kind: TaskRework, Minutes: m.ReworkFailedConnect,
					Loc: t.Loc, Deps: []int{id}, CableIdx: t.CableIdx,
					Label: fmt.Sprintf("rework cable %d", t.CableIdx)})
				rv := extend(Task{Kind: TaskValidate, Minutes: m.ValidateLink,
					Loc: t.Loc, Deps: []int{rw}, CableIdx: t.CableIdx, Revalidate: true,
					Label: fmt.Sprintf("revalidate cable %d", t.CableIdx)})
				// The rework is ready immediately (its dep just finished).
				indeg = append(indeg, 0, 1) // rw ready; rv waits on rw
				children[rw] = append(children[rw], rv)
				heap.Push(rq, rw)
			}
		}
	}
	sched.OffFloorMinutes = p.OffFloorMinutes
	if obs.Enabled() {
		obs.Add("deploy.tasks", int64(len(tasks)))
		obs.Add("deploy.techs", int64(opts.Techs))
		obs.Add("deploy.connections", int64(sched.Connections))
		obs.Add("deploy.reworks", int64(sched.Reworks))
		obs.Add("deploy.walk_min", int64(sched.WalkMinutes))
		obs.Add("deploy.makespan_min", int64(sched.Makespan))
	}
	return sched, nil
}

// readyQueue is a max-heap of task IDs by priority.
type readyQueue struct {
	ids  []int
	prio []float64
}

func (q *readyQueue) Len() int           { return len(q.ids) }
func (q *readyQueue) Less(i, j int) bool { return q.prio[q.ids[i]] > q.prio[q.ids[j]] }
func (q *readyQueue) Swap(i, j int)      { q.ids[i], q.ids[j] = q.ids[j], q.ids[i] }
func (q *readyQueue) Push(x any)         { q.ids = append(q.ids, x.(int)) }
func (q *readyQueue) Pop() any {
	old := q.ids
	n := len(old)
	x := old[n-1]
	q.ids = old[:n-1]
	return x
}
