package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"physdep/internal/twin"
)

func testDigests(t *testing.T) map[string]string {
	t.Helper()
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// benchmark's metric lists to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestShortPassEveryWorkload runs one short untraced and one short
// traced run of every workload and checks the printed result: every
// op correct, and every metric present with its unit.
func TestShortPassEveryWorkload(t *testing.T) {
	digests := testDigests(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 0.001, trace: traced, setupReps: 1, digests: digests}
			res, info, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, info.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, traced, len(printed.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := printed.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						w.name, traced, d.name, got, ok, d.unit)
				}
			}
			if info.GOMAXPROCS < 1 || info.ParWorkers < 1 || info.GoVersion == "" || info.Seed != 7 {
				t.Errorf("%s: incomplete host record %+v", w.name, info)
			}
		}
	}
}

// TestCorruptDigestIsAFailure corrupts the committed digest of one op
// of the pass; every run of that op must count as failed.
func TestCorruptDigestIsAFailure(t *testing.T) {
	for _, name := range []string{"evaluate", "daemon"} {
		w, _ := findWorkload(name)
		digests := testDigests(t)
		inst, err := w.setup(7, nil, digests)
		if err != nil {
			t.Fatal(err)
		}
		victim := inst.ops[len(inst.ops)-1].id
		inst.release()
		corrupt := map[string]string{}
		for k, v := range digests {
			corrupt[k] = v
		}
		corrupt[victim] = strings.Repeat("0", 64)
		res, _, err := run(config{workload: name, seed: 7, seconds: 0.001, setupReps: 1, digests: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 1 || res.Failed > res.Attempted {
			t.Errorf("%s: corrupted digest of %s gave correct=%v failed=%d attempted=%d",
				name, victim, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestTracedEvaluateMatchesEvaluateCtx holds the traced replica of the
// evaluate pipeline to the digests of core.EvaluateCtx's reports, on
// every input the evaluate and anneal workloads can draw.
func TestTracedEvaluateMatchesEvaluateCtx(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the whole evaluate and anneal pools")
	}
	digests := testDigests(t)
	for _, workload := range []string{"evaluate", "anneal"} {
		slots, steps := corpus(workload)
		for _, f := range slots {
			for v := 0; v < variants; v++ {
				topo, err := f.topo(v)
				if err != nil {
					t.Fatal(err)
				}
				tr := newTracer(time.Now(), new(atomic.Int64))
				rep, err := evaluateTraced(context.Background(), tr, f.input(topo, v, steps))
				if err != nil {
					t.Fatal(err)
				}
				out, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkDigest(digests, itemID(workload, f, v), out); err != nil {
					t.Error(err)
				}
				if len(tr.stack) != 0 || len(tr.spans) == 0 {
					t.Errorf("%s: unbalanced trace (%d open spans)", itemID(workload, f, v), len(tr.stack))
				}
			}
		}
	}
}

// TestTracedDryRunMatchesDryRun does the same for the dry-run replica,
// on the first variant of every slot and all of its plans.
func TestTracedDryRunMatchesDryRun(t *testing.T) {
	digests := testDigests(t)
	for _, f := range evalSlots {
		nw, plans, err := fabricPlans(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, plan := range plans {
			m, err := twin.FromNetwork(nw.p, nw.plan)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dryRunTraced(newTracer(time.Now(), new(atomic.Int64)), m, freshOps(plan))
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDigest(digests, planID(f, 0, j), out); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestCommittedDigestsAreCurrent recomputes every pool item through the
// library and compares with the committed digests, so a stale digest
// file is caught here rather than as failed ops.
func TestCommittedDigestsAreCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes every pool item")
	}
	digests := testDigests(t)
	items, err := allPoolItems()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(digests) {
		t.Errorf("%d pool items, %d committed digests", len(items), len(digests))
	}
	for _, it := range items {
		b, err := it.expect()
		if err != nil {
			t.Fatalf("%s: %v", it.id, err)
		}
		if err := checkDigest(digests, it.id, b); err != nil {
			t.Error(err)
		}
	}
}

func TestTailLadder(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n      int
		pct    float64
		ms     float64
		beyond int
	}{
		{15, 50, 8, 7},
		{40, 75, 30, 10},
		{99, 75, 75, 24},
		{100, 90, 90, 10},
		{999, 90, 900, 99},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		ms, pct, beyond := tail(mk(c.n))
		if ms != c.ms || pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: tail %v at p%v with %d beyond, want %v at p%v with %d",
				c.n, ms, pct, beyond, c.ms, c.pct, c.beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, Parent: 0, Start: 50, End: 60},
		{Name: "a", Op: 1, Parent: 0, Start: 70, End: 80},
		{Name: "root", Op: 2, Parent: -1, Start: 200, End: 260},
	}
	lt := aggregate(spans)
	if got := lt["root"].selfNs[1]; got != 50 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := lt["a"].selfNs[1]; got != 40 {
		t.Errorf("a self time %d, want 40 (two spans in one op)", got)
	}
	if got := lt["root"].selfNs[2]; got != 60 {
		t.Errorf("childless root self time %d, want 60", got)
	}
	if got := lt.selfMS("missing"); got != 0 {
		t.Errorf("unseen layer %v ms, want 0", got)
	}
}
