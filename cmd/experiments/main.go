// Command experiments regenerates the paper-claim tables (see DESIGN.md
// §3 for the experiment index).
//
// Usage:
//
//	experiments                         # run everything, in order
//	experiments -run E3,E4              # run a subset
//	experiments -list                   # list experiment IDs and titles
//	experiments -workers 4              # cap the worker pools (also PHYSDEP_WORKERS)
//	experiments -bench-json out.json    # benchmark experiments, write one JSON report
//	experiments -bench-json 'BENCH_*.json'  # …or one BENCH_E<n>.json per experiment
//	experiments -manifest m.json        # write the machine-readable run manifest
//	experiments -topo-file fabric.json  # evaluate one interchange document, print the JSON report
//	experiments -trace                  # print the span tree + counters to stderr
//	experiments -cpuprofile cpu.pprof   # runtime/pprof CPU profile of the run
//	experiments -memprofile mem.pprof   # heap profile at end of run
//	experiments -update-golden          # rewrite internal/experiments/testdata/golden
//
// Experiments run concurrently (bounded by -workers) but print in
// presentation order; the output is byte-identical for any worker count,
// and whether or not observability collection (-manifest/-trace) is on —
// the golden-corpus tests in internal/experiments enforce both.
//
// Bench mode times each selected experiment at every worker count in
// -bench-workers (default "1,N" where N is the full pool), reporting
// wall-clock, allocations, and the parallel speedup — the repo's perf
// trajectory is recorded by committing these BENCH_E*.json files. The
// placement-annealing ablation kernel is benchmarked alongside under the
// pseudo-ID ABLATION_PLACEMENT.
//
// The manifest (see manifest.go) is the superset of the bench report:
// per-experiment wall/alloc plus the full span forest (each
// core.EvaluateCtx's placement/cabling/deploy/twin phase breakdown), kernel
// counters, and per-worker task counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"physdep/internal/atomicfile"
	"physdep/internal/core"
	"physdep/internal/experiments"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/obs"
	"physdep/internal/par"
	"physdep/internal/physerr"
	"physdep/internal/placement"
	"physdep/internal/topology"
)

func main() {
	os.Exit(run())
}

func run() (exit int) {
	// fail reports an output-writing error and makes the run exit nonzero
	// without masking an earlier failure code. Deferred flushes use it so
	// a manifest or profile that never hit the disk cannot look like
	// success (the named return is what lets a defer change the code).
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		if exit == 0 {
			exit = 1
		}
	}
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS or PHYSDEP_WORKERS)")
	benchJSON := flag.String("bench-json", "", "benchmark instead of printing tables; write JSON here ('*' in the name expands per experiment)")
	benchReps := flag.Int("bench-reps", 3, "repetitions per benchmark point (best wall-clock wins)")
	benchWorkers := flag.String("bench-workers", "", "comma-separated worker counts to sweep in bench mode (default \"1,<pool>\")")
	manifestPath := flag.String("manifest", "", "write a machine-readable run manifest (spans, counters, env) to this JSON file")
	trace := flag.Bool("trace", false, "print the span tree and counters to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at end of run to this file")
	updateGolden := flag.Bool("update-golden", false, "rewrite the golden experiment tables under -golden-dir instead of printing")
	goldenDir := flag.String("golden-dir", filepath.Join("internal", "experiments", "testdata", "golden"),
		"directory -update-golden writes <ID>.txt files into")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no deadline); partial results are flushed and the exit code is nonzero")
	topoFile := flag.String("topo-file", "", "evaluate one interchange document with library defaults and print the JSON report (instead of running experiments)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// a ^C still flushes the manifest (marked interrupted) and profiles. A
	// second signal kills the process the usual way (NotifyContext resets
	// the handlers once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	if *manifestPath != "" || *trace {
		obs.Enable()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("cpuprofile: %w", err))
			}
		}()
	}
	// Observability outputs are flushed however the run exits, so a
	// failing experiment still leaves a manifest to debug from. A canceled
	// run flushes too, with the manifest marked "interrupted": true — the
	// partial record is the whole point of graceful cancellation.
	defer func() {
		if *manifestPath != "" || *trace {
			snap := obs.TakeSnapshot()
			if *trace {
				fmt.Fprint(os.Stderr, snap.RenderTrace())
			}
			if *manifestPath != "" {
				// The manifest itself is built in-memory by the library
				// (experiments.BuildManifest — the daemon serves the same
				// structure from /debug/obs); only this CLI sink writes files.
				if err := writeJSON(*manifestPath, experiments.BuildManifest(snap, ctx.Err() != nil)); err != nil {
					fail(fmt.Errorf("manifest: %w", err))
				}
			}
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
			}
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("memprofile: %w", err))
			}
		}
	}()

	if *topoFile != "" {
		if err := runTopoFile(ctx, *topoFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return diagnoseCancel(ctx, 1)
		}
		return diagnoseCancel(ctx, 0)
	}

	order := experiments.Order()

	if *list {
		for _, o := range experiments.RunManyCtx(ctx, order) {
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: error: %v\n", o.ID, o.Err)
				continue
			}
			fmt.Printf("%-4s %s\n", o.ID, o.Res.Title)
		}
		return diagnoseCancel(ctx, 0)
	}

	ids := order
	if *runList != "" {
		ids = nil
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if experiments.Get(id) == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	if *benchJSON != "" {
		if err := runBench(ctx, ids, *benchJSON, *benchReps, *benchWorkers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return diagnoseCancel(ctx, 1)
		}
		return diagnoseCancel(ctx, 0)
	}

	if *updateGolden {
		if err := writeGolden(ctx, ids, *goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return diagnoseCancel(ctx, 1)
		}
		return diagnoseCancel(ctx, 0)
	}

	failed := 0
	for _, o := range experiments.RunManyCtx(ctx, ids) {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", o.ID, o.Err)
			failed++
			continue
		}
		fmt.Println(o.Res.Render())
	}
	if failed > 0 {
		return diagnoseCancel(ctx, 1)
	}
	return diagnoseCancel(ctx, 0)
}

// diagnoseCancel maps a canceled context onto the exit code: if the run
// was cut short it prints the one-line cause (^C vs deadline) and forces
// a nonzero exit, otherwise it passes code through untouched. Called on
// every exit path so a cancellation can never masquerade as success.
func diagnoseCancel(ctx context.Context, code int) int {
	err := ctx.Err()
	if err == nil {
		return code
	}
	// The kernels classify this as physerr.ErrCanceled; print the
	// classified form so scripts can match one string for both the CLI
	// diagnostic and in-table experiment errors.
	fmt.Fprintf(os.Stderr, "experiments: %v\n", physerr.Canceled(err))
	if code == 0 {
		return 1
	}
	return code
}

// runTopoFile is the document twin of a one-experiment run: load an
// interchange document, evaluate it under core's defaults (honoring the
// document's hall geometry when present), and print the full Report as
// indented JSON on stdout — the machine-readable complement to
// physdep's human scorecard, for piping a fleet's exported fabric
// straight into jq or a dashboard.
func runTopoFile(ctx context.Context, path string) error {
	tp, doc, err := interchange.LoadFileCtx(ctx, path)
	if err != nil {
		return err
	}
	hall := floorplan.DefaultHall(6, 16)
	if doc.Hall != nil {
		hall = floorplan.DefaultHall(doc.Hall.Rows, doc.Hall.Slots)
	}
	rep, err := core.EvaluateCtx(ctx, core.DefaultInput(tp, hall))
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}

// writeGolden regenerates the golden corpus: one <ID>.txt per selected
// experiment, holding exactly Result.Render(). The committed files are
// the canonical experiment tables the regression tests diff against —
// rewrite them only when a table is meant to change, and review the
// diff like code. All experiments run before any file is touched, and
// each file is replaced atomically, so a failed or canceled update can
// never leave a half-written or half-updated corpus behind.
func writeGolden(ctx context.Context, ids []string, dir string) error {
	outs := experiments.RunManyCtx(ctx, ids)
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.ID, o.Err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range outs {
		path := filepath.Join(dir, o.ID+".txt")
		if err := writeFile(path, []byte(o.Res.Render())); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}

// benchSample is one (worker count → cost) measurement point.
type benchSample struct {
	Workers         int     `json:"workers"`
	WallMS          float64 `json:"wall_ms"` // best of reps
	Allocs          uint64  `json:"allocs"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// benchEntry is the benchmark record of one experiment (or ablation
// kernel): its scaling curve over the swept worker counts.
type benchEntry struct {
	ID         string        `json:"id"`
	Title      string        `json:"title"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Reps       int           `json:"reps"`
	Date       string        `json:"date"`
	Samples    []benchSample `json:"samples"`
}

func runBench(ctx context.Context, ids []string, outPath string, reps int, workerList string) error {
	if reps < 1 {
		reps = 1
	}
	pool := par.Workers()
	counts, err := parseBenchWorkers(workerList, pool)
	if err != nil {
		return err
	}
	defer par.SetWorkers(pool)

	type task struct {
		id, title string
		run       func() error
	}
	var tasks []task
	for _, id := range ids {
		run := experiments.Get(id)
		o := experiments.RunManyCtx(ctx, []string{id})[0] // warm-up + title
		if o.Err != nil {
			return fmt.Errorf("%s failed during warm-up: %v", id, o.Err)
		}
		tasks = append(tasks, task{id: id, title: o.Res.Title, run: func() error {
			_, err := run(ctx)
			return err
		}})
	}
	tasks = append(tasks, task{
		id:    "ABLATION_PLACEMENT",
		title: "Placement annealing, 4 restart chains × 20k steps (bench_test.go ablation)",
		run:   func() error { return benchPlacementKernel(ctx) },
	})

	var entries []benchEntry
	for _, tk := range tasks {
		e := benchEntry{
			ID: tk.id, Title: tk.title,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Reps: reps, Date: time.Now().UTC().Format("2006-01-02"),
		}
		for _, w := range counts {
			par.SetWorkers(w)
			best := benchSample{Workers: w}
			for r := 0; r < reps; r++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				if err := tk.run(); err != nil {
					return fmt.Errorf("%s (workers=%d): %v", tk.id, w, err)
				}
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
		if len(e.Samples) > 1 && e.Samples[0].Workers == 1 {
			serial := e.Samples[0].WallMS
			for i := range e.Samples[1:] {
				if e.Samples[i+1].WallMS > 0 {
					e.Samples[i+1].SpeedupVsSerial = serial / e.Samples[i+1].WallMS
				}
			}
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "benched %s: %v\n", tk.id, summarize(e))
	}
	return writeBench(entries, outPath)
}

func summarize(e benchEntry) string {
	var parts []string
	for _, s := range e.Samples {
		parts = append(parts, fmt.Sprintf("w=%d %.1fms", s.Workers, s.WallMS))
	}
	return strings.Join(parts, ", ")
}

// benchPlacementKernel mirrors BenchmarkAblationPlacement: greedy
// placement of a k=8 fat-tree, then 4 annealing restart chains.
func benchPlacementKernel(ctx context.Context) error {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		return err
	}
	f, err := floorplan.NewFloorplan(floorplan.DefaultHall(5, 14))
	if err != nil {
		return err
	}
	p, err := placement.Greedy(ft, f, placement.Config{})
	if err != nil {
		return err
	}
	_, _, err = placement.OptimizeRestartsCtx(ctx, p, 20000, 1, 4)
	return err
}

func writeBench(entries []benchEntry, outPath string) error {
	if strings.Contains(outPath, "*") {
		for _, e := range entries {
			path := strings.ReplaceAll(outPath, "*", e.ID)
			if err := writeJSON(path, e); err != nil {
				return err
			}
			fmt.Println(path)
		}
		return nil
	}
	if err := writeJSON(outPath, entries); err != nil {
		return err
	}
	fmt.Println(outPath)
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(b, '\n'))
}

// writeFile replaces path with data atomically (atomicfile.Write), so a
// crash or cancellation mid-write leaves the old artifact byte-for-byte
// intact.
func writeFile(path string, data []byte) error {
	return atomicfile.Write(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
