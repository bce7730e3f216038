// Command benchgate is the repo's benchmark regression gate: it re-runs
// the experiments whose committed BENCH_<ID>.json baselines define the
// perf trajectory (E1, E7, E16, ES1 — the all-pairs BFS, KSP
// water-filling, topology-engineering, and sampled fleet-scale hot
// paths), measures wall-clock and allocations the same way
// `cmd/experiments -bench-json` does, and fails if either regresses past
// a generous tolerance. check.sh (and therefore CI) runs it on every
// commit, so a kernel regression cannot ship silently.
//
// Usage:
//
//	go run ./scripts/benchgate              # gate against committed baselines
//	go run ./scripts/benchgate -update      # re-measure and rewrite baselines
//	BENCHGATE_SKIP=1 go run ./scripts/benchgate   # no-op (noisy runners)
//
// Tolerances are deliberately loose — wall-clock comparisons across
// machines and loaded CI runners are noisy — and tunable per run:
// -wall-factor (default 3.0) bounds measured/baseline wall time,
// -alloc-factor (default 1.25) bounds measured/baseline allocations.
// Allocation counts are nearly machine-independent, so the alloc bound is
// the one that catches real regressions (a kernel quietly reverting to a
// pointer-chasing or per-call-allocating path); the wall bound is a
// backstop for order-of-magnitude slowdowns.
//
// Wall-clock is only comparable between runs that had the same
// parallelism available, so the gate refuses outright — exit 2, not a
// tolerance verdict — when the current GOMAXPROCS differs from the one
// the baseline records. A 4-core baseline "gated" on a 1-core runner
// would either mask a real regression behind honest-looking slowdown or
// fail spuriously; re-record on matching hardware (-update) or skip
// (BENCHGATE_SKIP=1) instead. Every verdict table prints the environment
// (gomaxprocs, num_cpu, baseline date) and the per-sample wall/alloc
// deltas even when everything passes, so CI logs double as a perf
// trend record.
//
// -update rewrites each baseline atomically (temp file + rename, the
// same contract as cmd/experiments' artifact writes), so an interrupted
// update never leaves a torn baseline behind.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"physdep/internal/atomicfile"
	"physdep/internal/experiments"
	"physdep/internal/par"
)

// sample and entry mirror cmd/experiments' bench-json schema exactly, so
// the gate reads the committed BENCH_*.json files and -update writes
// byte-compatible replacements.
type sample struct {
	Workers         int     `json:"workers"`
	WallMS          float64 `json:"wall_ms"`
	Allocs          uint64  `json:"allocs"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

type entry struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Reps       int      `json:"reps"`
	Date       string   `json:"date"`
	Samples    []sample `json:"samples"`
}

func main() { os.Exit(run()) }

func run() int {
	dir := flag.String("dir", ".", "directory holding the BENCH_<ID>.json baselines")
	ids := flag.String("ids", "E1,E7,E16,E23,ES1", "comma-separated experiment IDs to gate")
	reps := flag.Int("reps", 3, "repetitions per point (best wall-clock wins)")
	update := flag.Bool("update", false, "re-measure and atomically rewrite the baselines instead of gating")
	wallFactor := flag.Float64("wall-factor", 3.0, "fail when measured wall_ms exceeds baseline × this")
	allocFactor := flag.Float64("alloc-factor", 1.25, "fail when measured allocs exceed baseline × this")
	flag.Parse()

	if os.Getenv("BENCHGATE_SKIP") != "" {
		fmt.Println("benchgate: skipped (BENCHGATE_SKIP set)")
		return 0
	}

	pool := par.Workers()
	defer par.SetWorkers(0)

	failed := false
	for _, id := range strings.Split(*ids, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if experiments.Get(id) == nil {
			fmt.Fprintf(os.Stderr, "benchgate: unknown experiment %q\n", id)
			return 2
		}
		path := filepath.Join(*dir, "BENCH_"+id+".json")
		baseline, err := load(path)
		if err != nil {
			if *update && os.IsNotExist(err) {
				baseline = nil // fresh baseline: measure the default sweep
			} else {
				fmt.Fprintf(os.Stderr, "benchgate: %s: %v (run `go run ./scripts/benchgate -update` to create baselines)\n", path, err)
				return 2
			}
		}
		if baseline != nil && !*update {
			// Wall times from different parallel envelopes are not
			// comparable: refuse rather than emit a meaningless verdict.
			if gmp := runtime.GOMAXPROCS(0); baseline.GoMaxProcs != gmp {
				fmt.Fprintf(os.Stderr,
					"benchgate: %s was recorded at GOMAXPROCS=%d (num_cpu %d) but this run has GOMAXPROCS=%d (num_cpu %d);\n"+
						"benchgate: cross-parallelism wall-clock comparison is meaningless — re-record on matching hardware with `go run ./scripts/benchgate -update`, or set BENCHGATE_SKIP=1\n",
					path, baseline.GoMaxProcs, baseline.NumCPU, gmp, runtime.NumCPU())
				return 2
			}
		}
		counts := []int{1, pool}
		if pool == 1 {
			counts = []int{1, 4} // keep a scaling point even on 1-CPU runners
		}
		if baseline != nil {
			counts = counts[:0]
			for _, s := range baseline.Samples {
				counts = append(counts, s.Workers)
			}
		}
		measured, err := measure(id, counts, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", id, err)
			return 2
		}
		if *update {
			if err := writeJSON(path, measured); err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: write %s: %v\n", path, err)
				return 2
			}
			fmt.Println(path)
			continue
		}
		if !compare(id, baseline, measured, *wallFactor, *allocFactor) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — a hot kernel regressed past tolerance.")
		fmt.Fprintln(os.Stderr, "benchgate: if the regression is intentional, rewrite the baselines with `go run ./scripts/benchgate -update` and commit the diff;")
		fmt.Fprintln(os.Stderr, "benchgate: on a known-noisy runner, set BENCHGATE_SKIP=1.")
		return 1
	}
	if !*update {
		fmt.Println("benchgate: all baselines within tolerance")
	}
	return 0
}

func load(path string) (*entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return &e, nil
}

// measure times one experiment at each worker count: one warm-up run
// (memoization, lazy tables), then reps timed runs with the best
// wall-clock kept — the same protocol as cmd/experiments -bench-json.
func measure(id string, counts []int, reps int) (*entry, error) {
	if reps < 1 {
		reps = 1
	}
	runFn := experiments.Get(id)
	if _, err := runFn(context.Background()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e := &entry{
		ID:         id,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
		Date:       time.Now().UTC().Format("2006-01-02"),
	}
	for _, w := range counts {
		par.SetWorkers(w)
		best := sample{Workers: w}
		for r := 0; r < reps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, err := runFn(context.Background())
			if err != nil {
				return nil, fmt.Errorf("workers=%d: %w", w, err)
			}
			e.Title = res.Title
			wall := float64(time.Since(t0).Microseconds()) / 1000
			runtime.ReadMemStats(&m1)
			if r == 0 || wall < best.WallMS {
				best.WallMS = wall
				best.Allocs = m1.Mallocs - m0.Mallocs
				best.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
			}
		}
		e.Samples = append(e.Samples, best)
	}
	par.SetWorkers(0)
	if len(e.Samples) > 1 && e.Samples[0].Workers == 1 {
		serial := e.Samples[0].WallMS
		for i := range e.Samples[1:] {
			if e.Samples[i+1].WallMS > 0 {
				e.Samples[i+1].SpeedupVsSerial = serial / e.Samples[i+1].WallMS
			}
		}
	}
	return e, nil
}

// compare prints the experiment's environment line and a per-worker
// wall/alloc delta table — always, pass or fail, so every CI log carries
// the full perf picture — and reports whether every measured sample
// stayed within tolerance of its baseline twin. Worker counts present on
// only one side are skipped — the sweep is driven by the baseline, so
// that only happens on a hand-edited file.
func compare(id string, baseline, measured *entry, wallFactor, allocFactor float64) bool {
	ok := true
	fmt.Printf("benchgate %s: gomaxprocs %d, num_cpu %d (baseline: gomaxprocs %d, num_cpu %d, recorded %s)\n",
		id, measured.GoMaxProcs, measured.NumCPU, baseline.GoMaxProcs, baseline.NumCPU, baseline.Date)
	fmt.Printf("  %7s %10s %10s %7s %12s %12s %7s %9s %10s\n",
		"workers", "wall_ms", "base_ms", "Δwall", "allocs", "base_allocs", "Δalloc", "alloc_mb", "verdict")
	for _, m := range measured.Samples {
		var b *sample
		for i := range baseline.Samples {
			if baseline.Samples[i].Workers == m.Workers {
				b = &baseline.Samples[i]
				break
			}
		}
		if b == nil {
			fmt.Printf("  %7d: no baseline sample, skipped\n", m.Workers)
			continue
		}
		wallBad := b.WallMS > 0 && m.WallMS > b.WallMS*wallFactor
		allocBad := b.Allocs > 0 && float64(m.Allocs) > float64(b.Allocs)*allocFactor
		verdict := "ok"
		if wallBad || allocBad {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("  %7d %10.1f %10.1f %6.2fx %12d %12d %6.3fx %9.1f %10s\n",
			m.Workers, m.WallMS, b.WallMS, ratio(m.WallMS, b.WallMS),
			m.Allocs, b.Allocs, ratio(float64(m.Allocs), float64(b.Allocs)),
			float64(m.AllocBytes)/(1<<20), verdict)
	}
	if !ok {
		fmt.Printf("  tolerance: wall ≤ %.2fx, allocs ≤ %.3fx\n", wallFactor, allocFactor)
	}
	return ok
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	// Atomic replace: a crash or ^C mid-update leaves the old baseline
	// intact.
	return atomicfile.Write(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}
