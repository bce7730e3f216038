package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"physdep/internal/cli"
	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/interchange"
	"physdep/internal/obs"
	"physdep/internal/serve"
	"physdep/internal/topology"
	"physdep/internal/trafficsim"
)

// Daemon workload shape. Each pass sends every chosen miss once (plus a
// few back-to-back duplicates that coalesce behind it) and two hot-set
// requests after each miss. missPerKind misses of each of the seven
// kinds is 56 distinct keys, more than daemonCacheEntries, so the LRU
// evicts every miss before its key comes round again and misses stay
// misses pass after pass, while the 8 hot keys, touched every few
// requests, stay resident and hit. Every pass holds the same number of
// each kind, so the cost mix, and the kind the tail falls in, is the
// same for every seed.
const (
	daemonClients      = 2
	daemonCacheEntries = 32
	missKinds          = 7
	missPoolPerKind    = 16
	missPerKind        = 8
	coalescedPerPass   = 4
	hitsPerMiss        = 2
)

// daemonReq is one request of the daemon stream: where it goes, its
// exact body, and the direct library call that answers it.
type daemonReq struct {
	path string
	body []byte
	// compute answers the request without the daemon, byte for byte as
	// the daemon should (json.Marshal of the response value plus the
	// trailing newline). tr is nil outside the traced replay.
	compute func(tr *tracer, docs docSet) ([]byte, error)
}

func (r daemonReq) id() string { return "daemon" + r.path + " " + string(r.body) }

// docSet holds the uploaded interchange documents by their daemon
// reference ("sha256:<hex>").
type docSet map[string][]byte

// daemonDocs are the fabrics uploaded through POST /v1/documents during
// set-up and then named by "file" specs.
func daemonDocs() ([][]byte, []string, error) {
	specs := []cli.TopoParams{
		{Name: "jellyfish", N: 128, Radix: 16, Net: 8, Rate: 100, Seed: 7},
		{Name: "xpander", D: 8, Lift: 12, Radix: 16, Rate: 100, Seed: 7},
		{Name: "fattree", K: 10, Rate: 100},
	}
	var docs [][]byte
	var refs []string
	for _, p := range specs {
		t, err := cli.BuildTopology(p)
		if err != nil {
			return nil, nil, err
		}
		b, err := interchange.FromTopology(t).Encode()
		if err != nil {
			return nil, nil, err
		}
		docs = append(docs, b)
		refs = append(refs, "sha256:"+digestOf(b))
	}
	return docs, refs, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func fileSpec(ref string) *cli.TopoParams { return &cli.TopoParams{Name: "file", File: ref} }

func evaluateReq(p *cli.TopoParams, rows, slots, techs int, seed uint64) daemonReq {
	req := serve.EvaluateRequest{Topo: p, Hall: serve.HallSpec{Rows: rows, Slots: slots}, Techs: techs, Seed: seed}
	return daemonReq{path: "/v1/evaluate", body: mustJSON(req), compute: func(tr *tracer, docs docSet) ([]byte, error) {
		t, err := buildSpec(tr, *p, docs)
		if err != nil {
			return nil, err
		}
		in := core.DefaultInput(t, floorplan.DefaultHall(rows, slots))
		in.Techs, in.Seed = techs, seed
		var rep *core.Report
		if tr == nil {
			rep, err = core.EvaluateCtx(context.Background(), in)
		} else {
			rep, err = evaluateTraced(context.Background(), tr, in)
		}
		if err != nil {
			return nil, err
		}
		return responseBody(serve.EvaluateResponse{Report: rep})
	}}
}

func statsReq(p *cli.TopoParams) daemonReq {
	return daemonReq{path: "/v1/stats", body: mustJSON(serve.StatsRequest{Topo: p}), compute: func(tr *tracer, docs docSet) ([]byte, error) {
		t, err := buildSpec(tr, *p, docs)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("graph.freeze")
		t.Freeze()
		tr.end(sp)
		st, err := statsTraced(context.Background(), tr, t)
		if err != nil {
			return nil, err
		}
		return responseBody(serve.StatsResponse{Name: t.Name, Stats: st})
	}}
}

// whatIfFracs are the daemon's default failure fractions, spelled out so
// the request carries them.
var whatIfFracs = []float64{0, 0.02, 0.05, 0.10}

func whatIfReq(p *cli.TopoParams, trials int, useKSP bool, seed uint64) daemonReq {
	req := serve.WhatIfRequest{Topo: p, FailFracs: whatIfFracs, Trials: trials, UseKSP: useKSP, EgressGbps: 100, Seed: seed}
	return daemonReq{path: "/v1/whatif", body: mustJSON(req), compute: func(tr *tracer, docs docSet) ([]byte, error) {
		t, err := buildSpec(tr, *p, docs)
		if err != nil {
			return nil, err
		}
		m := trafficsim.Uniform(len(t.ToRs()), 100)
		var baseline float64
		if useKSP {
			sp := tr.begin("trafficsim.ksp")
			baseline, err = trafficsim.KSPThroughputCtx(context.Background(), t, m, trafficsim.DefaultKSP())
			tr.end(sp)
		} else {
			sp := tr.begin("trafficsim.ecmp")
			baseline, err = trafficsim.ECMPThroughput(t, m)
			tr.end(sp)
		}
		if err != nil {
			return nil, err
		}
		sp := tr.begin("trafficsim.degradation")
		pts, err := trafficsim.FailureDegradationCtx(context.Background(), t, m, whatIfFracs, trials, useKSP, seed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return responseBody(serve.WhatIfResponse{Name: t.Name, BaselineAlpha: baseline, Points: pts})
	}}
}

// buildSpec builds a request's fabric the way the daemon's topology
// store does: generated families through cli.BuildTopology, file specs
// by loading the uploaded document.
func buildSpec(tr *tracer, p cli.TopoParams, docs docSet) (*topology.Topology, error) {
	if p.Name != "file" {
		return cli.BuildTopology(p)
	}
	data, ok := docs[p.File]
	if !ok {
		return nil, fmt.Errorf("document %s not uploaded", p.File)
	}
	sp := tr.begin("interchange.load")
	t, _, err := interchange.Load(data)
	tr.end(sp)
	return t, err
}

func responseBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// daemonPool is every request the daemon workload can send: the hot set
// (hot) and missKinds kinds of distinct miss, missPoolPerKind of each.
func daemonPool(refs []string) (hot []daemonReq, misses [][]daemonReq) {
	jf := func(n, radix, net int, seed uint64) *cli.TopoParams {
		return &cli.TopoParams{Name: "jellyfish", N: n, Radix: radix, Net: net, Rate: 100, Seed: seed}
	}
	hot = []daemonReq{
		evaluateReq(&cli.TopoParams{Name: "fattree", K: 6, Rate: 100}, 4, 12, 8, 1),
		evaluateReq(jf(36, 10, 5, 999), 4, 10, 8, 1),
		evaluateReq(fileSpec(refs[2]), 8, 16, 8, 1),
		statsReq(fileSpec(refs[0])),
		statsReq(fileSpec(refs[1])),
		statsReq(jf(160, 16, 8, 999)),
		whatIfReq(fileSpec(refs[2]), 2, false, 1),
		whatIfReq(jf(40, 10, 5, 999), 2, false, 1),
	}
	// Every miss of one kind costs about the same (same fabric size, and
	// file-spec kinds all name one document), so which misses a seed
	// draws does not move the latency distribution.
	misses = make([][]daemonReq, missKinds)
	for i := 0; i < missPoolPerKind; i++ {
		u := uint64(i)
		misses[0] = append(misses[0], evaluateReq(jf(128, 16, 8, 200+u), 10, 16, 8, 1))
		misses[1] = append(misses[1], evaluateReq(fileSpec(refs[0]), 10, 16, 6+i%4, 10+u))
		misses[2] = append(misses[2], statsReq(jf(320, 16, 8, 300+u)))
		misses[3] = append(misses[3], statsReq(&cli.TopoParams{Name: "flatrandom", N: 320, Radix: 16, Net: 8, Rate: 100, Seed: 500 + u}))
		misses[4] = append(misses[4], whatIfReq(jf(64, 12, 6, 400+u), 3, false, 1))
		misses[5] = append(misses[5], whatIfReq(fileSpec(refs[1]), 3, false, 20+u))
		misses[6] = append(misses[6], whatIfReq(jf(24, 8, 4, 600+u), 1, true, 1))
	}
	return hot, misses
}

// daemonStream draws one pass from the pool: missPerKind misses of each
// kind in seeded order, a few immediately repeated so the repeat
// coalesces behind the in-flight original, and hitsPerMiss hot-set
// requests after each miss, cycling through the hot set.
func daemonStream(seed uint64, hot []daemonReq, misses [][]daemonReq) []daemonReq {
	rng := rand.New(rand.NewPCG(seed, 0x64616d6e))
	var chosen []daemonReq
	for _, kind := range misses {
		for _, i := range rng.Perm(len(kind))[:missPerKind] {
			chosen = append(chosen, kind[i])
		}
	}
	rng.Shuffle(len(chosen), func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
	dup := map[int]bool{}
	for _, i := range rng.Perm(len(chosen))[:coalescedPerPass] {
		dup[i] = true
	}
	h := rng.IntN(len(hot))
	var stream []daemonReq
	for i, m := range chosen {
		stream = append(stream, m)
		if dup[i] {
			stream = append(stream, m)
		}
		for k := 0; k < hitsPerMiss; k++ {
			stream = append(stream, hot[h%len(hot)])
			h++
		}
	}
	return stream
}

// daemonInstance is a running daemon behind a loopback httptest server.
type daemonInstance struct {
	srv    *httptest.Server
	client *http.Client
	docs   docSet
	misses []daemonReq // distinct misses of the pass, for the traced replay
}

func (d *daemonInstance) close() {
	d.srv.Close()
	d.client.Transport.(*http.Transport).CloseIdleConnections()
	obs.Disable()
	obs.Reset()
}

// send posts one request and returns the body, the cache outcome the
// daemon reported, and the round-trip latency.
func (d *daemonInstance) send(path string, body []byte) ([]byte, string, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, "", lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", lat, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, resp.Header.Get("X-Physdepd-Cache"), lat, nil
}

func (d *daemonInstance) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// setupDaemon is the daemon's cold start: a fresh server, every
// document uploaded and checked, and the hot set filled by its first
// (missing) requests.
func setupDaemon(seed uint64, tr *tracer, digests map[string]string) (*instance, error) {
	docs, refs, err := daemonDocs()
	if err != nil {
		return nil, err
	}
	obs.Reset()
	s := serve.New(serve.Config{CacheEntries: daemonCacheEntries})
	d := &daemonInstance{
		srv: httptest.NewServer(s.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients,
			MaxIdleConnsPerHost: daemonClients, DisableCompression: true}},
		docs: docSet{},
	}
	// Uploads and the hot-set fill are checked like ops: a bad answer is
	// a failed op of the run, not a set-up error.
	var checked loopStats
	check := func(id string, out []byte, err error) {
		checked.ops++
		if err == nil {
			err = checkDigest(digests, id, out)
		}
		if err != nil {
			checked.failed++
			checked.failures = append(checked.failures, err.Error())
		}
	}
	for i, b := range docs {
		tr.newOp()
		sp := tr.begin("serve.upload")
		out, _, _, err := d.send("/v1/documents", b)
		tr.endCount(sp, int64(len(b)))
		check("daemon/v1/documents "+refs[i], out, err)
		// The same bytes through the loader alone, for interchange.load.
		sp = tr.begin("interchange.load")
		_, _, err = interchange.Load(b)
		tr.end(sp)
		if err != nil {
			d.close()
			return nil, err
		}
		d.docs[refs[i]] = b
	}
	hot, misses := daemonPool(refs)
	for _, r := range hot {
		out, _, _, err := d.send(r.path, r.body)
		check(r.id(), out, err)
	}
	stream := daemonStream(seed, hot, misses)
	ops := make([]op, len(stream))
	seen := map[string]bool{}
	for i, r := range stream {
		ops[i] = d.op(r)
		if isMiss(r, hot) && !seen[r.id()] {
			seen[r.id()] = true
			d.misses = append(d.misses, r)
		}
	}
	return &instance{ops: ops, clients: daemonClients, close: d.close, layers: d.layers, checked: checked}, nil
}

func isMiss(r daemonReq, hot []daemonReq) bool {
	for _, h := range hot {
		if h.id() == r.id() {
			return false
		}
	}
	return true
}

// op sends one request of the stream. The traced run records it as a
// serve.hit / serve.miss / serve.coalesced span, by the daemon's
// X-Physdepd-Cache header, with the body size as its count.
func (d *daemonInstance) op(r daemonReq) op {
	return op{id: r.id(), run: func(tr *tracer) ([]byte, time.Duration, error) {
		sp := tr.begin("serve.request")
		out, outcome, lat, err := d.send(r.path, r.body)
		tr.endCount(sp, int64(len(out)))
		if tr != nil && sp >= 0 {
			tr.spans[sp].Name = "serve." + outcome
		}
		return out, lat, err
	}}
}

// layers adds the daemon's own per-layer numbers after the traced run:
// counters from /metrics, the size of /debug/obs, and a traced replay of
// every distinct miss through direct library calls, each checked
// against the committed digest like the daemon's answer was.
func (d *daemonInstance) layers(tr *tracer, digests map[string]string, m map[string]float64) error {
	metrics, err := d.get("/metrics")
	if err != nil {
		return err
	}
	c := parseMetrics(metrics)
	if n := c["serve_cache_hit"] + c["serve_cache_miss"]; n > 0 {
		m["serve.hit_ratio"] = c["serve_cache_hit"] / n
	}
	m["serve.evictions"] = c["serve_cache_evict"]
	m["serve.rejected_429"] = c["serve_admission_rejected"]
	dbg, err := d.get("/debug/obs")
	if err != nil {
		return err
	}
	m["obs.debug_obs_kb"] = float64(len(dbg)) / 1024
	for _, r := range d.misses {
		tr.newOp()
		out, err := r.compute(tr, d.docs)
		if err == nil {
			err = checkDigest(digests, r.id(), out)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.id(), err)
		}
	}
	return nil
}

// parseMetrics reads the counter and gauge values of a /metrics page.
func parseMetrics(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}

// daemonPoolItems lists every daemon response the workload can receive,
// with its expected bytes from the direct library call.
func daemonPoolItems() ([]poolItem, error) {
	docs, refs, err := daemonDocs()
	if err != nil {
		return nil, err
	}
	set := docSet{}
	var items []poolItem
	for i, b := range docs {
		b, ref := b, refs[i]
		set[ref] = b
		items = append(items, poolItem{id: "daemon/v1/documents " + ref, expect: func() ([]byte, error) {
			t, _, err := interchange.Load(b)
			if err != nil {
				return nil, err
			}
			return responseBody(serve.DocumentResponse{Document: ref, Name: t.Name,
				Switches: t.NumSwitches(), Links: t.NumEdges()})
		}})
	}
	hot, misses := daemonPool(refs)
	all := append([]daemonReq(nil), hot...)
	for _, kind := range misses {
		all = append(all, kind...)
	}
	for _, r := range all {
		r := r
		items = append(items, poolItem{id: r.id(), expect: func() ([]byte, error) { return r.compute(nil, set) }})
	}
	return items, nil
}
