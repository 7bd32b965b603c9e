// Patterns sweeps every registry traffic pattern — uniform, the classic
// permutations (transpose, bit-complement, bit-reversal, shuffle,
// tornado), nearest-neighbor and the center hotspot — through the
// cycle-accurate simulator on the paper's mesh scaled to 8×8, comparing
// the plain electronic mesh against the HyPPI-express hybrid.
//
// The point: the paper evaluates HyPPI under statistically averaged
// traffic, but express links earn (or lose) their keep under spatial
// structure. Tornado and transpose concentrate flow along rows — exactly
// where the horizontal express links live — while nearest-neighbor gives
// them nothing to do. The per-pattern saturation throughput (latency-knee
// rule, see noc.DetectSaturation) makes that visible in one table.
//
// Run with:
//
//	go run ./examples/patterns
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
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := core.DefaultEnergySweep()
	results, err := core.PatternSweep(context.Background(), []topology.Kind{topology.Mesh}, points,
		traffic.Patterns(), sc, o, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("8×8 mesh, every registry pattern, electronic vs + HyPPI express@3")
	fmt.Printf("offered-load ladder: %v flits/cycle\n\n", sc.Rates)
	fmt.Print(report.SaturationTable(results))

	// Highlight the hybrid's saturation gain per pattern.
	fmt.Println("\nsaturation gain from HyPPI express links:")
	half := len(results) / 2
	for i := 0; i < half; i++ {
		mesh, hybrid := results[i], results[half+i]
		switch {
		case mesh.AtFloor || hybrid.AtFloor:
			// A knee at the sweep floor is a bound, not a measurement:
			// the ratio would overstate (or understate) the gain.
			fmt.Printf("  %-10s saturates at or below the sweep floor — gain not measurable in range\n",
				mesh.Pattern)
		case mesh.Saturates && hybrid.Saturates:
			fmt.Printf("  %-10s %.2fx (%.3g → %.3g flits/cycle)\n", mesh.Pattern,
				hybrid.SaturationRate/mesh.SaturationRate,
				mesh.SaturationRate, hybrid.SaturationRate)
		case mesh.Saturates:
			fmt.Printf("  %-10s mesh saturates at %.3g, hybrid never does in range\n",
				mesh.Pattern, mesh.SaturationRate)
		case hybrid.Saturates:
			fmt.Printf("  %-10s hybrid saturates at %.3g but the mesh never does — express links hurt\n",
				mesh.Pattern, hybrid.SaturationRate)
		default:
			fmt.Printf("  %-10s neither saturates in the swept range\n", mesh.Pattern)
		}
	}
}
