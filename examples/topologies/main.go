// Topologies compares every registered topology kind — the paper's mesh,
// the torus its hops = W−1 configuration approximates, the concentrated
// mesh and the flattened butterfly — on one 8×8 grid, first analytically
// (CLEAR and its ingredients under Soteriou traffic), then with the
// cycle-accurate simulator under uniform and tornado loads.
//
// The point: the paper buys its CLEAR gains by adding express channels to
// a mesh, but the same silicon budget could buy a different fabric
// outright. The torus removes the mesh's edge asymmetry for one wrap
// channel per line; the flattened butterfly spends quadratically more
// wiring and router radix to flatten every route to ≤ 2 hops; the
// concentrated mesh spends router radix to shrink the grid. The kind
// registry makes those head-to-head comparisons one flag (or one slice)
// wide.
//
// Run with:
//
//	go run ./examples/topologies
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	o := core.DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	kinds := topology.Kinds()

	// Analytic pass: plain electronic and HyPPI fabrics per kind.
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0},
	}
	rows, err := core.ExploreKinds(context.Background(), kinds, points, o, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("8×8 plain fabrics, Soteriou traffic — CLEAR and ingredients per kind")
	fmt.Print(report.KindComparisonTable(rows))
	for _, s := range topology.KindSpecs() {
		fmt.Printf("  %-6s %s\n         deadlock: %s\n", s.Name, s.Description, s.Deadlock)
	}

	// Cycle-accurate pass: the topology × pattern × load matrix under the
	// benign (uniform) and adversarial (tornado) registry patterns.
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		log.Fatal(err)
	}
	sc := core.DefaultEnergySweep()
	plain := []core.DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
	results, err := core.PatternSweep(context.Background(), kinds, plain, pats, sc, o, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncycle-accurate saturation, offered-load ladder %v flits/cycle\n\n", sc.Rates)
	fmt.Print(report.SaturationTable(results))

	// Headline: how much tornado headroom each fabric buys over the mesh.
	fmt.Println("\ntornado saturation vs mesh:")
	sat := map[topology.Kind]core.EnergySweepResult{}
	for _, r := range results {
		if r.Pattern == "tornado" {
			sat[r.Kind] = r
		}
	}
	mesh := sat[topology.Mesh]
	for _, k := range kinds {
		r := sat[k]
		switch {
		case !r.Saturates:
			fmt.Printf("  %-6s never saturates in range\n", k)
		case r.AtFloor || (mesh.Saturates && mesh.AtFloor):
			// A floor-bounded knee caps capacity from above only; a ratio
			// against it would overstate the fabric.
			fmt.Printf("  %-6s saturates at or below the sweep floor (≤%.3g)\n", k, r.SaturationRate)
		case mesh.Saturates:
			fmt.Printf("  %-6s %.2fx (%.3g → %.3g flits/cycle)\n",
				k, r.SaturationRate/mesh.SaturationRate, mesh.SaturationRate, r.SaturationRate)
		default:
			fmt.Printf("  %-6s saturates at %.3g\n", k, r.SaturationRate)
		}
	}
}
