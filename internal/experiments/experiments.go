// Package experiments regenerates every quantitative claim in the paper
// as a table (the paper itself, a position paper, has no numbered tables
// or figures — each experiment here quantifies one of its prose claims or
// case studies; see DESIGN.md §3 for the index). cmd/experiments prints
// them; bench_test.go at the repo root wraps each in a benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
)

// Result is one regenerated table.
type Result struct {
	ID    string
	Title string
	Paper string // the paper claim being tested, quoted or paraphrased
	Lines []string
	Notes string
}

// Render formats the result for the terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "   paper: %s\n", r.Paper)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "   %s\n", l)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "   note: %s\n", r.Notes)
	}
	return b.String()
}

// Runner produces one experiment. The context cancels the experiment's
// long-running kernels mid-run (see DESIGN.md §9); runners that complete
// are byte-identical regardless of the context used.
type Runner func(ctx context.Context) (*Result, error)

var (
	allOnce sync.Once
	allMap  map[string]Runner
)

// shared returns the memoized registry map. Never handed to callers —
// All copies it so external mutation can't poison later lookups.
func shared() map[string]Runner {
	allOnce.Do(func() {
		allMap = registry()
	})
	return allMap
}

// All returns a fresh copy of the experiment registry. Callers may
// mutate the returned map freely (delete entries to build subsets, etc.)
// without affecting Get or later All calls.
func All() map[string]Runner {
	src := shared()
	out := make(map[string]Runner, len(src))
	for id, run := range src {
		out[id] = run
	}
	return out
}

// Get returns the runner for id, or nil if the ID is unknown. It reads
// the shared memoized registry directly, so it stays allocation-free on
// the bench-harness path.
func Get(id string) Runner { return shared()[id] }

func registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1Deployability,
		"E2":  E2MediaCrossover,
		"E3":  E3ExpansionComplexity,
		"E4":  E4JupiterConversion,
		"E5":  E5IndirectionBenefit,
		"E6":  E6UnitOfRepair,
		"E7":  E7ThroughputVsDeploy,
		"E8":  E8Bundling,
		"E9":  E9StrandedCapital,
		"E10": E10TwinDryRun,
		"E11": E11Heterogeneity,
		"E12": E12Fungibility,
		"E13": E13Decom,
		"E14": E14Envelope,
		"E15": E15CapacityPlanning,
		"E16": E16TopologyEngineering,
		"E17": E17ActivePanels,
		"E18": E18RobotCrews,
		"E19": E19FailureDegradation,
		"E20": E20DayOneVsLifetime,
		"E21": E21HumanFactors,
		"E22": E22SupplyChainAudit,
		"E23": E23PlannerGrowthCost,
		"E24": E24PlannerVsNaive,
		"ES1": ES1SampledCalibration,
		"ES2": ES2FleetScale,
	}
}

// Order lists experiment IDs in presentation order. The ES band (E-scale:
// 10k–100k switches under the sampled path-stats estimator) follows the
// classic numbered band.
func Order() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7",
		"E8", "E9", "E10", "E11", "E12", "E13", "E14",
		"E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22",
		"E23", "E24",
		"ES1", "ES2"}
}

// Outcome is one experiment's run result, error included, so a failing
// experiment doesn't abort a concurrent batch.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunManyCtx executes the given experiments concurrently (bounded by
// par.Workers()) and returns their outcomes in input order, which is how
// cmd/experiments keeps its output byte-identical to a serial run.
// Unknown IDs yield an error outcome.
//
// ctx gates experiment hand-out
// (par contract) and threads into each running experiment's kernels, so
// a deadline stops a batch mid-experiment. Experiments the batch never
// started (and ones the cancellation cut short) carry an error matching
// physerr.ErrCanceled in their outcome; experiments that finished before
// the cancellation keep their real results, so a partial manifest still
// reports the work that was done.
func RunManyCtx(ctx context.Context, ids []string) []Outcome {
	out := make([]Outcome, len(ids))
	for k, id := range ids {
		out[k].ID = id // prefilled so skipped tasks still carry their ID
	}
	// par.ForCtx reports only the lowest failing index; each outcome
	// carries its own error, so the batch error is reconstructed from the
	// outcomes below instead. A per-task error would also stop the batch
	// early, which is wrong here: a failing experiment must not keep the
	// rest from running.
	batchErr := par.ForCtx(ctx, len(ids), func(k int) error {
		run := Get(ids[k])
		if run == nil {
			out[k].Err = fmt.Errorf("unknown experiment %q", ids[k])
			return nil
		}
		sp := obs.StartSpan("experiment:" + ids[k])
		var m0 runtime.MemStats
		if sp != nil {
			runtime.ReadMemStats(&m0)
		}
		out[k].Res, out[k].Err = run(ctx)
		if sp != nil {
			// Allocation deltas are process-wide, so with concurrent
			// experiments they over-count per experiment; they are exact
			// when -workers=1. Wall time is the span duration.
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			sp.SetAttr("allocs", int64(m1.Mallocs-m0.Mallocs))
			sp.SetAttr("alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
			sp.SetAttr("workers", int64(par.Workers()))
			if out[k].Err != nil {
				sp.SetAttr("failed", 1)
			}
		}
		sp.End()
		return nil
	})
	if batchErr != nil && errors.Is(batchErr, physerr.ErrCanceled) {
		// Tasks par never handed out have no result and no error; mark
		// them canceled so callers can tell "skipped" from "ran clean".
		for k := range out {
			if out[k].Res == nil && out[k].Err == nil {
				out[k].Err = batchErr
			}
		}
	}
	return out
}
