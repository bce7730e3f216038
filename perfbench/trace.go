package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the library call (nothing inside internal/ is touched).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // operation ID; spans of one op share it
	Parent int    `json:"parent"` // index of the enclosing span in the trace, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // work done, where the layer has a count (cables, tasks, bytes…)
}

// tracer records spans for one client goroutine. A nil *tracer is the
// untraced run: every method is a no-op, so ops call it unconditionally.
type tracer struct {
	epoch time.Time
	ids   *atomic.Int64 // shared by the tracers of one run
	op    int
	spans []span
	stack []int
}

func newTracer(epoch time.Time, ids *atomic.Int64) *tracer {
	return &tracer{epoch: epoch, ids: ids}
}

// newOp starts a new operation: the spans that follow share its ID.
func (tr *tracer) newOp() {
	if tr != nil {
		tr.op = int(tr.ids.Add(1))
	}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Op: tr.op, Parent: parent,
		Start: time.Since(tr.epoch).Nanoseconds(), End: -1})
	i := len(tr.spans) - 1
	tr.stack = append(tr.stack, i)
	return i
}

// end closes the span begin returned.
func (tr *tracer) end(i int) { tr.endCount(i, 0) }

// endCount closes the span and records a work count on it.
func (tr *tracer) endCount(i int, count int64) {
	if tr == nil || i < 0 {
		return
	}
	tr.spans[i].End = time.Since(tr.epoch).Nanoseconds()
	tr.spans[i].Count = count
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// mergeSpans concatenates per-client traces, rebasing parent indices.
func mergeSpans(trs []*tracer) []span {
	var out []span
	for _, tr := range trs {
		off := len(out)
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// layerTable aggregates a trace per span name: each op's summed self
// time (span minus the time its child spans cover) and summed count.
type layerTable map[string]*layerAgg

type layerAgg struct {
	selfNs map[int]int64
	count  map[int]int64
	totNs  int64
}

func aggregate(spans []span) layerTable {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	t := layerTable{}
	for i, s := range spans {
		a := t[s.Name]
		if a == nil {
			a = &layerAgg{selfNs: map[int]int64{}, count: map[int]int64{}}
			t[s.Name] = a
		}
		self := s.End - s.Start - child[i]
		a.selfNs[s.Op] += self
		a.count[s.Op] += s.Count
		a.totNs += s.End - s.Start
	}
	return t
}

// selfMS is the median over ops of the per-op self time spent in the
// layer, in ms; 0 when this workload never calls the layer.
func (t layerTable) selfMS(name string) float64 {
	a := t[name]
	if a == nil {
		return 0
	}
	v := make([]float64, 0, len(a.selfNs))
	for _, ns := range a.selfNs {
		v = append(v, float64(ns)/1e6)
	}
	return median(v)
}

// countMedian is the median over ops of the per-op count on the layer.
func (t layerTable) countMedian(name string) float64 {
	a := t[name]
	if a == nil {
		return 0
	}
	v := make([]float64, 0, len(a.count))
	for _, c := range a.count {
		v = append(v, float64(c))
	}
	return median(v)
}

// durationsMS lists every span's full duration for one name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start)/1e6)
		}
	}
	return v
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
