// Energy compares latency–energy Pareto fronts measured by the
// activity-based energy subsystem: the plain electronic mesh against two
// express hybrids — electronic express links (cheap wiring, linear energy
// with distance) and HyPPI express links (the paper's contribution,
// distance-flat optical energy) — on the 8×8 cycle-accurate scale.
//
// The point: the paper's headline is that HyPPI wins on fJ/bit *and*
// CLEAR, but its Table V energy comes from amortized per-flit figures at
// one load point. Measuring instead — dynamic energy from counted
// flit-hops, buffer accesses, crossbar passes and E-O/O-E conversions,
// plus static power integrated over the simulated cycles — lets the
// trade-off surface speak for itself: at every offered load each design
// lands somewhere on the (latency, fJ/bit) plane, and the Pareto frontier
// of each traffic pattern names the designs worth building.
//
// Run with:
//
//	go run ./examples/energy
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
	// The two express hop lengths bracket the Fig. 3 crossover: at 3 hops
	// (3 mm links) electronic wires still compete; at 7 hops (7 mm
	// row-closure rings) the distance-proportional wire energy has lost
	// to HyPPI's distance-flat conversion cost.
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}, // plain electronic mesh
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 3}, // hybrid, electronic express
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},      // hybrid, HyPPI express
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 7},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 7},
	}
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		log.Fatal(err)
	}
	sc := core.DefaultEnergySweep()
	results, err := core.EnergySweep(context.Background(), []topology.Kind{topology.Mesh},
		points, pats, sc, o, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("8×8 mesh, measured latency–energy sweep: electronic vs hybrid vs HyPPI express")
	fmt.Printf("offered-load ladder: %v flits/cycle\n", sc.Rates)
	fmt.Println("fJ/bit = activity energy + static power integrated over the run; '*' = Pareto front")
	fmt.Println()
	fmt.Print(report.EnergyTable(results))

	fmt.Println("\nPareto frontier per pattern (ascending latency)")
	fmt.Print(report.ParetoTable(results))

	// Who owns the frontier? Count frontier samples per design point per
	// pattern — the one-number summary of the Pareto comparison.
	fmt.Println("\nfrontier samples owned per design point:")
	type key struct {
		pattern string
		label   string
	}
	owned := map[key]int{}
	total := map[string]int{}
	for _, r := range results {
		for _, p := range r.Points {
			if p.Pareto {
				owned[key{r.Pattern, r.Point.Label(r.Kind)}]++
				total[r.Pattern]++
			}
		}
	}
	for _, pat := range pats {
		fmt.Printf("  %s:\n", pat.Name())
		for _, r := range results {
			if r.Pattern != pat.Name() {
				continue
			}
			n := owned[key{r.Pattern, r.Point.Label(r.Kind)}]
			fmt.Printf("    %-40s %d/%d\n", r.Point.Label(r.Kind), n, total[r.Pattern])
		}
	}

	// The energy story behind the frontier: where does each design spend
	// its dynamic energy at a common mid-ladder load point? Pick the
	// drained rate nearest 0.1 flits/cycle rather than assuming the
	// default ladder contains it exactly.
	const midRate = 0.1
	pick := func(pts []core.EnergyPoint) *core.EnergyPoint {
		var best *core.EnergyPoint
		for i := range pts {
			p := &pts[i]
			if p.Saturated {
				continue
			}
			if best == nil || abs(p.Rate-midRate) < abs(best.Rate-midRate) {
				best = p
			}
		}
		return best
	}
	fmt.Printf("\ndynamic energy split near %v flits/cycle (uniform):\n", midRate)
	for _, r := range results {
		if r.Pattern != "uniform" {
			continue
		}
		if p := pick(r.Points); p != nil {
			d := p.Run.Dynamic
			fmt.Printf("  %-40s links %s (E %s, HyPPI %s)  buffers %s  xbar %s  E/O+O/E %s\n",
				r.Point.Label(r.Kind),
				core.FormatEnergy(d.WireJ+d.ModulatorJ+d.SerdesJ+d.ReceiverJ),
				core.FormatEnergy(d.LinkJ[tech.Electronic]),
				core.FormatEnergy(d.LinkJ[tech.HyPPI]),
				core.FormatEnergy(d.BufferJ),
				core.FormatEnergy(d.CrossbarJ),
				core.FormatEnergy(d.ModulatorJ+d.ReceiverJ))
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
