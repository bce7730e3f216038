package experiments

import (
	"runtime"
	"strings"
	"time"

	"physdep/internal/obs"
	"physdep/internal/par"
)

// Manifest is the machine-readable record of one experiments run: a
// superset of the -bench-json report. Where bench mode records only
// wall/alloc scaling points, the manifest carries the full observability
// snapshot — per-experiment spans (with the placement/cabling/deploy
// phase breakdown from core.EvaluateCtx), kernel counters, per-worker task
// counts, and the environment the run happened in.
//
// Building a Manifest is a pure in-memory distillation of an
// obs.Snapshot: no sink is implied. cmd/experiments writes it to a file
// (temp+rename); the evaluation daemon (internal/serve) serves it from
// memory at /debug/obs and never touches the filesystem — which is why
// the builder lives here rather than in the CLI.
type Manifest struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	// Interrupted marks a manifest distilled after the run was cut short
	// by SIGINT/SIGTERM or a deadline: the spans and counters below
	// describe only the work that finished before the cancellation.
	Interrupted bool `json:"interrupted,omitempty"`

	Experiments []ManifestExperiment `json:"experiments"`
	Counters    map[string]int64     `json:"counters,omitempty"`
	Gauges      map[string]float64   `json:"gauges,omitempty"`
	Spans       []*obs.SpanData      `json:"spans,omitempty"`
}

// ManifestExperiment summarizes one experiment's run, distilled from
// its "experiment:<ID>" span.
type ManifestExperiment struct {
	ID         string  `json:"id"`
	OK         bool    `json:"ok"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     int64   `json:"allocs"`
	AllocBytes int64   `json:"alloc_bytes"`
	Workers    int64   `json:"workers"`
}

// BuildManifest distills the obs snapshot into the run manifest.
// interrupted marks a partial run (see Manifest.Interrupted).
func BuildManifest(snap obs.Snapshot, interrupted bool) Manifest {
	m := Manifest{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     par.Workers(),
		Interrupted: interrupted,
		Counters:    snap.Counters,
		Gauges:      snap.Gauges,
	}
	spans := append([]*obs.SpanData(nil), snap.Spans...)
	obs.SortSpans(spans)
	m.Spans = spans
	for _, sp := range spans {
		id, ok := strings.CutPrefix(sp.Name, "experiment:")
		if !ok {
			continue
		}
		m.Experiments = append(m.Experiments, ManifestExperiment{
			ID:         id,
			OK:         sp.Attrs["failed"] == 0,
			WallMS:     float64(sp.DurNS) / 1e6,
			Allocs:     sp.Attrs["allocs"],
			AllocBytes: sp.Attrs["alloc_bytes"],
			Workers:    sp.Attrs["workers"],
		})
	}
	return m
}
