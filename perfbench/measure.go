package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request of a workload. run performs it and returns the
// output bytes that are checked against the committed digest for id,
// together with the latency of the call into the system under test
// (preparing a scratch input or hashing the output is not part of it).
// tr is nil in the untraced run.
type op struct {
	id  string
	run func(tr *tracer) (out []byte, lat time.Duration, err error)
}

// loopStats is what a closed loop over whole passes measured.
type loopStats struct {
	passes   int
	ops      int
	failed   int
	wall     time.Duration
	lats     []float64 // ms, one per op
	mallocs  uint64
	bytes    uint64
	failures []string // first few failure reasons, for stderr
}

// closedLoop runs whole passes of ops with `clients` callers that each
// wait for a reply before taking the next op, until at least `seconds`
// have passed (at least one pass). tracers, when non-nil, holds one
// tracer per client.
func closedLoop(ops []op, clients int, seconds float64, digests map[string]string,
	tracers []*tracer) loopStats {
	var st loopStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for st.passes == 0 || time.Since(start) < limit {
		runPass(ops, clients, digests, tracers, &st)
		st.passes++
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	return st
}

// runPass runs every op of the pass once, each client taking the next
// unclaimed op in list order.
func runPass(ops []op, clients int, digests map[string]string, tracers []*tracer, st *loopStats) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			var lats []float64
			var fails []string
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				tr.newOp()
				out, lat, err := ops[i].run(tr)
				if err == nil {
					err = checkDigest(digests, ops[i].id, out)
				}
				if err != nil {
					fails = append(fails, err.Error())
				}
				lats = append(lats, float64(lat)/1e6)
			}
			mu.Lock()
			st.ops += len(lats)
			st.lats = append(st.lats, lats...)
			st.failed += len(fails)
			for _, f := range fails {
				if len(st.failures) < 5 {
					st.failures = append(st.failures, f)
				}
			}
			mu.Unlock()
		}(tr)
	}
	wg.Wait()
}

// checkDigest compares an op's output with the committed digest.
func checkDigest(digests map[string]string, id string, out []byte) error {
	want, ok := digests[id]
	if !ok {
		return fmt.Errorf("%s: no committed digest", id)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: output digest %s, committed %s", id, got[:12], want[:min(12, len(want))])
	}
	return nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tailLadder is the set of percentiles a tail is reported at: the
// highest one with at least tailBeyond samples above it is used, so the
// tail always rests on real samples rather than on the maximum.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

const tailBeyond = 10

// percentile is the nearest-rank percentile of unsorted ms samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	// The epsilon keeps p99.9 of 10000 at rank 9990: 99.9 is not exact
	// in binary, and the product lands just above the integer.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(n-1, r))
}

// tail returns the tail latency, its percentile, and the number of
// samples beyond it. With fewer than tailBeyond+1 samples it falls back
// to the median.
func tail(v []float64) (ms, pct float64, beyond int) {
	for _, p := range tailLadder {
		b := len(v) - 1 - rank(len(v), p)
		if b >= tailBeyond {
			return percentile(v, p), p, b
		}
	}
	return percentile(v, 50), 50, len(v) - 1 - rank(len(v), 50)
}

// liveHeapMB is the live heap after forced collections, in MB: the
// median of five readings, each after two cycles (so objects parked in
// sync.Pool victim caches are gone). The runtime still allocates a few
// KB of its own state lazily around the first collections; the median
// keeps that from landing in one reading and not the other.
func liveHeapMB() float64 {
	v := make([]float64, 5)
	for i := range v {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		v[i] = float64(m.HeapAlloc) / (1 << 20)
	}
	return median(v)
}
