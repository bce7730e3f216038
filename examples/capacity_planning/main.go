// Capacity planning meets physical deployment speed (§2.3) and OCS
// topology engineering (§4.1): first see how the deployment pipeline's
// length degrades the planner, then watch the OCS layer chase a traffic
// shift at software speed.
//
//	go run ./examples/capacity_planning
package main

import (
	"context"
	"fmt"
	"log"

	"physdep/internal/costmodel"
	"physdep/internal/topoeng"
	"physdep/internal/trafficsim"
	"physdep/internal/workload"
)

func main() {
	fmt.Println("part 1 — deployment speed is a forecasting instrument (§2.3)")
	g := workload.GrowthModel{Start: 10000, MonthlyRate: 0.05, Noise: 0.06, Seed: 17}
	outs, err := workload.SweepLeadTimes(g, 72, []int{1, 3, 6, 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %10s %14s %16s %14s\n", "lead_mo", "forecast_err%", "stranded_u_mo", "idle_u_mo")
	for _, o := range outs {
		fmt.Printf("  %10d %14.1f %16.0f %14.0f\n",
			o.LeadTimeMonths, 100*o.MeanAbsFcastErr, o.StrandedUnitMo, o.IdleUnitMo)
	}
	fmt.Println("  → every month of physical lead time is forecast error the planner pays in")
	fmt.Println("    stranded machines (too little) and dark capital (too much).")

	fmt.Println("\npart 2 — the OCS layer absorbs the shift the planner missed (§4.1)")
	const blocks, uplinks = 10, 36
	demand := make([][]float64, blocks)
	for a := range demand {
		demand[a] = make([]float64, blocks)
		for b := range demand[a] {
			if a != b {
				demand[a][b] = 100
			}
		}
	}
	// An ML training job lands on blocks 0–3: their mutual traffic 8×es.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				demand[a][b] = 800
			}
		}
	}
	uni := topoeng.Uniform(blocks, uplinks)
	eng, err := topoeng.Engineer(blocks, uplinks, 1, demand)
	if err != nil {
		log.Fatal(err)
	}
	tm := trafficsim.NewMatrix(blocks)
	for a := range demand {
		copy(tm.D[a], demand[a])
	}
	tu, err := topoeng.BuildTopology(uni, 100, 12)
	if err != nil {
		log.Fatal(err)
	}
	te, err := topoeng.BuildTopology(eng, 100, 12)
	if err != nil {
		log.Fatal(err)
	}
	au, err := trafficsim.KSPThroughputCtx(context.Background(), tu, tm, trafficsim.DefaultKSP())
	if err != nil {
		log.Fatal(err)
	}
	ae, err := trafficsim.KSPThroughputCtx(context.Background(), te, tm, trafficsim.DefaultKSP())
	if err != nil {
		log.Fatal(err)
	}
	moves, err := topoeng.Retargets(uni, eng)
	if err != nil {
		log.Fatal(err)
	}
	m := costmodel.Default()
	fmt.Printf("  uniform mesh admits      α = %.3f of the shifted demand\n", au)
	fmt.Printf("  engineered mesh admits   α = %.3f (%.2fx)\n", ae, ae/au)
	fmt.Printf("  cost of the reshape: %d OCS retargets ≈ %.0f minutes of software time\n",
		moves, float64(topoeng.ReconfigMinutes(moves, m.OCSReconfig)))
	fmt.Printf("  the same moves as manual jumper work: ≈ %.1f technician-hours on the floor\n",
		float64(moves)*float64(m.JumperMove)/60)
	fmt.Println("\n  → \"networks need the flexibility to cope with time-varying non-uniformity\" — §4.1")
}
