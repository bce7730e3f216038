// Command topogen generates a topology and prints its graph-theoretic
// profile — the abstract side of the deployability tradeoff, on its own
// for quick comparisons.
//
// Usage:
//
//	topogen -topo jellyfish -n 128 -radix 16 -net 8
//	topogen -topo fattree -k 16
//	topogen -topo slimfly -q 13
//	topogen -topo jellyfish -n 128 -radix 16 -net 8 -emit fabric.json
//	topogen -topo-file fabric.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"physdep/internal/cli"
	"physdep/internal/interchange"
	"physdep/internal/physerr"
	"physdep/internal/trafficsim"
	"physdep/internal/units"
)

func main() {
	var (
		topoName = flag.String("topo", "fattree", strings.Join(cli.Families(), "|"))
		k        = flag.Int("k", 8, "fat-tree K / fatclique Kf / butterfly dims")
		n        = flag.Int("n", 64, "jellyfish N / leaf count / butterfly C / flatrandom N")
		radix    = flag.Int("radix", 16, "switch radix")
		net      = flag.Int("net", 8, "network ports per ToR (flatrandom R)")
		d        = flag.Int("d", 8, "xpander D / fatclique Ks / vl2 DA")
		lift     = flag.Int("lift", 6, "xpander lift / fatclique Kb / vl2 DI")
		q        = flag.Int("q", 5, "slim fly q")
		spines   = flag.Int("spines", 8, "leaf-spine spines")
		rate     = flag.Float64("rate", 100, "line rate Gbps")
		seed     = flag.Uint64("seed", 1, "random seed")
		tput     = flag.Bool("throughput", false, "also compute uniform-traffic throughput (slower)")
		emit     = flag.String("emit", "", "also write the fabric as an interchange document to this path")
		topoFile = flag.String("topo-file", "", "profile an interchange document instead of generating (overrides -topo)")
	)
	flag.Parse()
	// ^C/SIGTERM cancel the profile gracefully (one-line diagnostic,
	// nonzero exit); a second signal kills it the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	params := cli.TopoParams{
		Name: *topoName, K: *k, N: *n, Radix: *radix, Net: *net, D: *d,
		Lift: *lift, Q: *q, Spines: *spines, Rate: units.Gbps(*rate), Seed: *seed,
	}
	if *topoFile != "" {
		params = cli.TopoParams{Name: "file", File: *topoFile}
	}
	tp, err := cli.BuildTopology(params)
	if err != nil {
		fatal(err)
	}
	if *emit != "" {
		doc := interchange.FromTopology(tp)
		doc.Generator = &interchange.Provenance{Tool: "topogen", Family: params.Name, Spec: specJSON(params)}
		if err := interchange.EmitFile(*emit, doc); err != nil {
			fatal(err)
		}
		fmt.Printf("emitted: %s\n", *emit)
	}
	st, err := tp.BasicStatsCtx(ctx)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewPCG(*seed, *seed^0x70706f))
	gap := tp.SpectralGap(300, rng)
	bisect, err := tp.BisectionEstimateCtx(ctx, 6, rng)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("topology: %s\n", tp.Name)
	fmt.Printf("  switches: %d   links: %d   servers: %d\n", st.Switches, st.Links, st.Servers)
	min, max := tp.MinMaxDegree()
	fmt.Printf("  degree: %d..%d   regular: %v\n", min, max, min == max)
	fmt.Printf("  ToR diameter: %d   mean ToR hops: %.3f\n", st.ToRDiam, st.ToRMean)
	fmt.Printf("  spectral gap: %.4f   bisection (heuristic): %.0f Gbps\n", gap, bisect)
	if *tput {
		tors := tp.ToRs()
		if len(tors) == 0 {
			fatal(physerr.OutOfRange("topogen: -throughput needs ToRs to carry traffic; %s has none", tp.Name))
		}
		per := float64(tp.Nodes[tors[0]].ServerPorts) * *rate
		m := trafficsim.Uniform(len(tors), per)
		ae, err := trafficsim.ECMPThroughput(tp, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  uniform-traffic alpha (ECMP): %.3f\n", ae)
		ak, err := trafficsim.KSPThroughputCtx(ctx, tp, m, trafficsim.DefaultKSP())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  uniform-traffic alpha (KSP-8): %.3f\n", ak)
	}
}

// fatal prints the one-line diagnostic and exits nonzero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// specJSON renders the generator parameters as canonical JSON for the
// emitted document's provenance block (informational only: a re-upload
// or reload never consults it).
func specJSON(p cli.TopoParams) string {
	b, err := json.Marshal(p)
	if err != nil {
		return ""
	}
	return string(b)
}
