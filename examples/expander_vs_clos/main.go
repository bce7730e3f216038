// The §4.2 case study end to end: why aren't expander fabrics in wide
// use? Build a fat-tree and a Jellyfish at the same server count, show
// the expander winning every abstract metric, then show what the
// physical build and the first expansion cost.
//
//	go run ./examples/expander_vs_clos
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"physdep/internal/core"
	"physdep/internal/floorplan"
	"physdep/internal/lifecycle"
	"physdep/internal/topology"
)

func main() {
	hall := floorplan.DefaultHall(6, 16)

	ft, err := topology.FatTree(topology.FatTreeConfig{K: 8, Rate: 100})
	if err != nil {
		log.Fatal(err)
	}
	jcfg := topology.JellyfishConfig{N: 32, K: 8, R: 4, Rate: 100, Seed: 7}
	jf, err := topology.Jellyfish(jcfg)
	if err != nil {
		log.Fatal(err)
	}

	ftRep, err := core.EvaluateCtx(context.Background(), core.DefaultInput(ft, hall))
	if err != nil {
		log.Fatal(err)
	}
	jfRep, err := core.EvaluateCtx(context.Background(), core.DefaultInput(jf, hall))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round 1 — the abstract contest (the one papers score):")
	fmt.Printf("  %-18s %9s %9s %10s %12s\n", "fabric", "switches", "servers", "mean_hops", "spectral_gap")
	for _, r := range []*core.Report{ftRep, jfRep} {
		fmt.Printf("  %-18s %9d %9d %10.2f %12.3f\n",
			r.Name, r.Abstract.Switches, r.Abstract.Servers,
			r.Abstract.ToRMeanHops, r.Abstract.SpectralGap)
	}
	fmt.Println("  → the expander serves the same servers with far fewer switches and shorter paths.")

	fmt.Println("\nround 2 — the physical contest (the one this paper scores):")
	fmt.Printf("  %-18s %8s %9s %9s %12s %10s\n", "fabric", "cables", "length_m", "bundle%", "deploy_hrs", "labor_$")
	for _, r := range []*core.Report{ftRep, jfRep} {
		fmt.Printf("  %-18s %8d %9.0f %9.1f %12.1f %10.0f\n",
			r.Name, r.Cabling.Cables, float64(r.Cabling.TotalLength),
			100*r.Bundleability, float64(r.TimeToDeploy), float64(r.LaborCost))
	}
	fmt.Println("  → the fat-tree's pod structure bundles; the random graph ships cable by cable.")

	fmt.Println("\nround 3 — the first expansion (add 4 ToRs):")
	rng := rand.New(rand.NewPCG(1, 2))
	jStep, err := lifecycle.ExpandJellyfish(jf, jcfg, 4, rng)
	if err != nil {
		log.Fatal(err)
	}
	cf, err := lifecycle.NewClosFabric(8, 4, 8, 64)
	if err != nil {
		log.Fatal(err)
	}
	if err := cf.Wire(lifecycle.UniformDemand(8, 4, 8)); err != nil {
		log.Fatal(err)
	}
	cStep, _, err := lifecycle.ExpandClosViaPanels(cf, 4, 8, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-18s %10s %12s %8s\n", "fabric", "rewired", "new_links", "sites")
	fmt.Printf("  %-18s %10d %12d %8d\n", "jellyfish", jStep.Rewired, jStep.NewLinks, jStep.FloorTasks)
	fmt.Printf("  %-18s %10d %12d %8d\n", "clos+panels", cStep.Rewired, cStep.NewLinks, cStep.FloorTasks)
	fmt.Println("  → the expander breaks live links at scattered racks; the Clos adds jumpers at panels.")
	fmt.Println("\nverdict: the §4.2 suspicion, quantified — the abstract win has a physical price.")
}
