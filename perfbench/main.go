// Command perfbench is physdep's benchmark: four closed-loop workloads
// over the public API of the evaluator, the digital twin and the
// evaluation daemon, each op's output checked against a committed
// digest. One run prints the end-to-end metrics (--trace 0) or, from a
// separate traced run, the per-layer ones (--trace 1). See README.md for
// the workloads, the metrics, and which layer moves which number.
//
//	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"physdep/internal/par"
)

//go:embed digests.json
var committedDigests []byte

// instance is a workload after set-up: one pass of ops in fixed order,
// the number of clients that run it, and what to release afterwards.
type instance struct {
	ops     []op
	clients int
	close   func()
	// layers adds workload-specific per-layer numbers after the traced
	// run (the daemon's counters and its miss replay); may be nil.
	layers func(tr *tracer, digests map[string]string, m map[string]float64) error
	// checked counts the outputs set-up itself checked (the daemon's
	// uploads and hot-set fill).
	checked loopStats
}

func (in *instance) release() {
	if in != nil && in.close != nil {
		in.close()
	}
}

type workload struct {
	name  string
	setup func(seed uint64, tr *tracer, digests map[string]string) (*instance, error)
}

var workloads = []workload{
	{"evaluate", func(seed uint64, _ *tracer, _ map[string]string) (*instance, error) {
		return setupEvaluate("evaluate", seed)
	}},
	{"anneal", func(seed uint64, _ *tracer, _ map[string]string) (*instance, error) {
		return setupEvaluate("anneal", seed)
	}},
	{"twin-dryrun", func(seed uint64, _ *tracer, _ map[string]string) (*instance, error) {
		return setupDryRun(seed)
	}},
	{"daemon", setupDaemon},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names a metric and its unit; the lists below are the
// benchmark's whole vocabulary (BENCHMARK.json lists the same names).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"retained_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"twin.check_ms", "ms"},
	{"twin.build_ms", "ms"},
	{"twin.relations", "count"},
	{"twin.apply_ms", "ms"},
	{"twin.dryrun_check_ms", "ms"},
	{"placement.greedy_ms", "ms"},
	{"placement.anneal_ms", "ms"},
	{"placement.anneal_allocs", "count"},
	{"placement.steps_per_s", "1/s"},
	{"cabling.plan_ms", "ms"},
	{"cabling.cables", "count"},
	{"deploy.build_ms", "ms"},
	{"deploy.execute_ms", "ms"},
	{"deploy.tasks", "count"},
	{"core.self_ms", "ms"},
	{"topology.stats_ms", "ms"},
	{"topology.spectral_ms", "ms"},
	{"topology.bisection_ms", "ms"},
	{"graph.freeze_ms", "ms"},
	{"trafficsim.ecmp_ms", "ms"},
	{"trafficsim.ksp_ms", "ms"},
	{"trafficsim.degradation_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_tail_ms", "ms"},
	{"serve.coalesced_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.evictions", "count"},
	{"serve.rejected_429", "count"},
	{"serve.body_bytes", "B"},
	{"interchange.load_ms", "ms"},
	{"serve.upload_ms", "ms"},
	{"obs.debug_obs_kb", "KB"},
	{"trace.overhead_pct", "%"},
}

// layerSpans maps each per-layer time metric onto the span whose
// per-op self time it reports.
var layerSpans = map[string]string{
	"twin.check_ms":             "twin.check",
	"twin.build_ms":             "twin.build",
	"twin.apply_ms":             "twin.apply",
	"twin.dryrun_check_ms":      "twin.dryrun_check",
	"placement.greedy_ms":       "placement.greedy",
	"placement.anneal_ms":       "placement.anneal",
	"cabling.plan_ms":           "cabling.plan",
	"deploy.build_ms":           "deploy.build",
	"deploy.execute_ms":         "deploy.execute",
	"core.self_ms":              "core.evaluate",
	"topology.stats_ms":         "topology.stats",
	"topology.spectral_ms":      "topology.spectral",
	"topology.bisection_ms":     "topology.bisection",
	"graph.freeze_ms":           "graph.freeze",
	"trafficsim.ecmp_ms":        "trafficsim.ecmp",
	"trafficsim.ksp_ms":         "trafficsim.ksp",
	"trafficsim.degradation_ms": "trafficsim.degradation",
	"interchange.load_ms":       "interchange.load",
	"serve.upload_ms":           "serve.upload",
}

// layerCounts maps each per-layer count metric onto its span.
var layerCounts = map[string]string{
	"twin.relations":          "twin.build",
	"placement.anneal_allocs": "placement.anneal",
	"cabling.cables":          "cabling.plan",
	"deploy.tasks":            "deploy.build",
}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	setupReps int
	spansPath string // where the traced run writes its spans; "" writes none
	digests   map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is printed on the line before the result: what the run ran
// on and how its numbers were formed.
type runInfo struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        bool      `json:"trace"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"num_cpu"`
	ParWorkers   int       `json:"par_workers"`
	Clients      int       `json:"clients"`
	GoVersion    string    `json:"go_version"`
	PassOps      int       `json:"pass_ops"`
	Passes       int       `json:"passes"`
	Samples      int       `json:"samples"`
	TailPct      float64   `json:"tail_percentile"`
	TailBeyond   int       `json:"tail_samples_beyond"`
	SetupSeconds []float64 `json:"setup_s_reps"`
	Failures     []string  `json:"failures,omitempty"`
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 3

// fanOut is the parallelism every layer is held to: GOMAXPROCS and the
// par worker pool, at most the host's CPUs and at most 2 (the daemon's
// client count and the anneal workload's restart count).
func fanOut() int { return min(2, runtime.NumCPU()) }

func run(cfg config) (*result, *runInfo, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	info := &runInfo{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), ParWorkers: par.Workers(),
		GoVersion: runtime.Version()}
	baseHeap := liveHeapMB()

	// Set-up is the cold start: building the workload's state and its
	// first, discarded warm-up pass, which pays every lazy fill. It runs
	// several times and setup_s is the median, so it is a steady number;
	// only the last instance is measured.
	epoch := time.Now()
	var opIDs atomic.Int64
	setupTr := newTracer(epoch, &opIDs)
	var inst *instance
	var warm loopStats
	for r := 0; r < cfg.setupReps; r++ {
		inst.release()
		inst = nil
		runtime.GC()
		var tr *tracer
		if cfg.trace && r == cfg.setupReps-1 {
			tr = setupTr
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, tr, cfg.digests)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		warm.ops += inst.checked.ops
		warm.failed += inst.checked.failed
		warm.failures = append(warm.failures, inst.checked.failures...)
		runPass(inst.ops, inst.clients, cfg.digests, nil, &warm)
		info.SetupSeconds = append(info.SetupSeconds, time.Since(t0).Seconds())
	}
	defer inst.release()
	info.Clients = inst.clients
	info.PassOps = len(inst.ops)

	m := map[string]float64{}
	defs := endToEnd
	var measured loopStats
	if !cfg.trace {
		measured = closedLoop(inst.ops, inst.clients, cfg.seconds, cfg.digests, nil)
		ops := float64(measured.ops)
		m["setup_s"] = median(info.SetupSeconds)
		m["ops_per_s"] = ops / measured.wall.Seconds()
		m["latency_p50_ms"] = percentile(measured.lats, 50)
		m["latency_tail_ms"], _, _ = tail(measured.lats)
		m["allocs_per_op"] = float64(measured.mallocs) / ops
		m["bytes_per_op"] = float64(measured.bytes) / ops
		m["retained_heap_mb"] = liveHeapMB() - baseHeap
	} else {
		// Untraced then traced halves: their throughput ratio is the
		// tracing overhead; the per-layer numbers come from the spans.
		defs = perLayer
		plain := closedLoop(inst.ops, inst.clients, cfg.seconds/2, cfg.digests, nil)
		tracers := make([]*tracer, inst.clients)
		for i := range tracers {
			tracers[i] = newTracer(epoch, &opIDs)
		}
		measured = closedLoop(inst.ops, inst.clients, cfg.seconds/2, cfg.digests, tracers)
		plainRate := float64(plain.ops) / plain.wall.Seconds()
		tracedRate := float64(measured.ops) / measured.wall.Seconds()
		m["trace.overhead_pct"] = (plainRate/tracedRate - 1) * 100
		measured.failed += plain.failed
		measured.ops += plain.ops
		measured.failures = append(measured.failures, plain.failures...)
		replay := newTracer(epoch, &opIDs)
		if inst.layers != nil {
			if err := inst.layers(replay, cfg.digests, m); err != nil {
				measured.ops++
				measured.failed++
				measured.failures = append(measured.failures, err.Error())
			}
		}
		spans := mergeSpans(append([]*tracer{setupTr, replay}, tracers...))
		layerMetrics(spans, m)
		if cfg.spansPath != "" {
			if err := writeSpans(cfg.spansPath, cfg.workload, cfg.seed, spans); err != nil {
				return nil, nil, err
			}
		}
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	info.Passes = measured.passes
	_, info.TailPct, info.TailBeyond = tail(measured.lats)
	info.Samples = len(measured.lats)
	info.Failures = append(warm.failures, measured.failures...)
	// Every checked output counts: set-up and warm-up ones too.
	res.Attempted = warm.ops + measured.ops
	res.Failed = warm.failed + measured.failed
	res.Correct = res.Failed == 0
	return res, info, nil
}

// layerMetrics fills the span-derived per-layer metrics.
func layerMetrics(spans []span, m map[string]float64) {
	t := aggregate(spans)
	for metric, name := range layerSpans {
		m[metric] = t.selfMS(name)
	}
	for metric, name := range layerCounts {
		m[metric] = t.countMedian(name)
	}
	if a := t["placement.anneal"]; a != nil && a.totNs > 0 {
		m["placement.steps_per_s"] = float64(len(a.selfNs)*annealSteps*annealRestarts) / (float64(a.totNs) / 1e9)
	}
	hits := durationsMS(spans, "serve.hit")
	misses := durationsMS(spans, "serve.miss")
	coalesced := durationsMS(spans, "serve.coalesced")
	m["serve.hit_p50_ms"] = percentile(hits, 50)
	m["serve.miss_p50_ms"] = percentile(misses, 50)
	m["serve.miss_tail_ms"], _, _ = tail(misses)
	m["serve.coalesced_p50_ms"] = percentile(coalesced, 50)
	var body, n int64
	for _, s := range spans {
		switch s.Name {
		case "serve.hit", "serve.miss", "serve.coalesced":
			body += s.Count
			n++
		}
	}
	if n > 0 {
		m["serve.body_bytes"] = float64(body) / float64(n)
	}
}

func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(committedDigests, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// poolItem is one input a workload can draw, with the direct library
// call that gives its expected output.
type poolItem struct {
	id     string
	expect func() ([]byte, error)
}

func allPoolItems() ([]poolItem, error) {
	items := evaluatePool("evaluate")
	items = append(items, evaluatePool("anneal")...)
	dr, err := dryRunPool()
	if err != nil {
		return nil, err
	}
	items = append(items, dr...)
	d, err := daemonPoolItems()
	return append(items, d...), err
}

// writeDigests records the digest of every pool item's expected output.
func writeDigests(path string) error {
	items, err := allPoolItems()
	if err != nil {
		return err
	}
	out := map[string]string{}
	for _, it := range items {
		b, err := it.expect()
		if err != nil {
			return fmt.Errorf("%s: %w", it.id, err)
		}
		out[it.id] = digestOf(b)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	name := flag.String("workload", "", "workload: evaluate, anneal, twin-dryrun or daemon")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed draws the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time per run, in whole passes")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	gen := flag.String("write-digests", "", "compute every pool item's expected output through the library and write the digests to this file, then exit")
	flag.Parse()

	n := fanOut()
	runtime.GOMAXPROCS(n)
	par.SetWorkers(n)

	if *gen != "" {
		if err := writeDigests(*gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	digests, err := loadDigests()
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = errors.New("--seconds must be > 0")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Spans go beside the build, where run.sh puts it.
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setupReps: setupReps, spansPath: filepath.Join(out, "spans-"+*name+".json"), digests: digests}
	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range info.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	printJSON(info)
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs and maps of floats always marshal
	}
	fmt.Println(string(b))
}
