package taskgraph

import (
	"reflect"
	"testing"
)

// TestGeneratorsValidate: every registered generator must produce a valid
// (acyclic, in-range) graph across node counts, including non-powers of
// two, with the message count its formula promises.
func TestGeneratorsValidate(t *testing.T) {
	cfg := DefaultGenConfig()
	counts := map[string]func(n int) int{
		"reduce":         func(n int) int { return n - 1 },
		"broadcast":      func(n int) int { return n - 1 },
		"ring-allreduce": func(n int) int { return 2 * n * (n - 1) },
		"tree-allreduce": func(n int) int { return 2 * (n - 1) },
		"allgather":      func(n int) int { return n * (n - 1) },
		"moe-alltoall":   func(n int) int { return 2 * n * (n - 1) },
		"pipeline":       func(n int) int { return cfg.Microbatches * (n - 1) },
	}
	for _, gen := range Generators() {
		want, ok := counts[gen.Name()]
		if !ok {
			t.Errorf("generator %q has no message-count formula in this test", gen.Name())
			continue
		}
		for _, n := range []int{2, 6, 16, 64} {
			g, err := gen.Generate(n, cfg)
			if err != nil {
				t.Errorf("%s(n=%d): %v", gen.Name(), n, err)
				continue
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s(n=%d): invalid graph: %v", gen.Name(), n, err)
			}
			if got := len(g.Messages); got != want(n) {
				t.Errorf("%s(n=%d): %d messages, want %d", gen.Name(), n, got, want(n))
			}
			if g.NumNodes != n {
				t.Errorf("%s(n=%d): NumNodes = %d", gen.Name(), n, g.NumNodes)
			}
		}
	}
}

// TestGeneratorsDeterministic: generators are pure functions — two calls
// with identical inputs must yield identical graphs.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, gen := range Generators() {
		a, err := gen.Generate(16, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.Generate(16, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: generator not deterministic", gen.Name())
		}
	}
}

// TestGeneratorStructure spot-checks the dependency shapes that carry the
// semantics: the reduce root receives log₂N messages, MoE combines depend
// on their matching dispatch, and pipeline stage-0 releases are staggered.
func TestGeneratorStructure(t *testing.T) {
	cfg := DefaultGenConfig()

	red := mustGen(t, "reduce", 8, cfg)
	rootIn := 0
	for _, m := range red.Messages {
		if m.Dst == 0 {
			rootIn++
		}
	}
	if rootIn != 3 { // log₂8
		t.Errorf("reduce(8): root receives %d messages, want 3", rootIn)
	}
	// The final message into the root must depend on earlier receptions.
	last := red.Messages[len(red.Messages)-1]
	if last.Dst != 0 || len(last.Deps) == 0 {
		t.Errorf("reduce(8): final message %+v should target the root with deps", last)
	}

	moe := mustGen(t, "moe-alltoall", 4, cfg)
	half := len(moe.Messages) / 2
	for i, m := range moe.Messages[half:] {
		if len(m.Deps) != 1 {
			t.Fatalf("moe combine %d: %d deps, want 1", i, len(m.Deps))
		}
		d := moe.Messages[m.Deps[0]]
		if d.Src != m.Dst || d.Dst != m.Src {
			t.Errorf("moe combine %d->%d depends on dispatch %d->%d, want the reverse pair",
				m.Src, m.Dst, d.Src, d.Dst)
		}
	}

	pipe := mustGen(t, "pipeline", 4, cfg)
	for m := 0; m < cfg.Microbatches; m++ {
		first := pipe.Messages[m]
		if want := int64(m+1) * cfg.ComputeClks; first.ComputeClks != want || len(first.Deps) != 0 {
			t.Errorf("pipeline stage-0 microbatch %d: offset %d deps %v, want %d and none",
				m, first.ComputeClks, first.Deps, want)
		}
	}

	ring := mustGen(t, "ring-allreduce", 8, cfg)
	if size := ring.Messages[0].SizeFlits; size != cfg.SizeFlits/8 {
		t.Errorf("ring-allreduce(8): chunk %d flits, want %d", size, cfg.SizeFlits/8)
	}
	// All-gather phase steps are pure forwards: no compute offset.
	if off := ring.Messages[len(ring.Messages)-1].ComputeClks; off != 0 {
		t.Errorf("ring-allreduce final step offset %d, want 0", off)
	}
}

// TestLookupAndParse: registry resolution mirrors the traffic-pattern
// registry's contract.
func TestLookupAndParse(t *testing.T) {
	if _, err := Lookup("no-such-graph"); err == nil {
		t.Error("Lookup of unknown generator succeeded")
	}
	all, err := ParseGenerators("all")
	if err != nil || len(all) != len(Names()) {
		t.Errorf("ParseGenerators(all) = %d generators, err %v", len(all), err)
	}
	two, err := ParseGenerators(" reduce , pipeline ")
	if err != nil || len(two) != 2 || two[0].Name() != "reduce" || two[1].Name() != "pipeline" {
		t.Errorf("ParseGenerators list = %v, err %v", two, err)
	}
	dup, err := ParseGenerators("reduce,pipeline,Reduce")
	if err != nil || len(dup) != 2 || dup[0].Name() != "reduce" || dup[1].Name() != "pipeline" {
		t.Errorf("ParseGenerators with a repeat = %v, err %v; want [reduce pipeline]", dup, err)
	}
	if _, err := ParseGenerators(" , "); err == nil {
		t.Error("ParseGenerators of empty list succeeded")
	}
	if _, err := Generators()[0].Generate(1, DefaultGenConfig()); err == nil {
		t.Error("Generate on a 1-node network succeeded")
	}
	if _, err := Generators()[0].Generate(4, GenConfig{}); err == nil {
		t.Error("Generate with the zero GenConfig succeeded")
	}
}

func mustGen(t *testing.T, name string, n int, cfg GenConfig) *Graph {
	t.Helper()
	gen, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGeneratorAllocs: every generator pre-sizes its message list and cuts
// its Deps from one shared array, so building a 144-node graph (the 12×12
// mesh of the closed-loop sweeps) costs a handful of allocations, not one
// per message, and no message's Deps shares capacity with a neighbour's.
func TestGeneratorAllocs(t *testing.T) {
	const n, maxAllocs = 144, 8
	cfg := DefaultGenConfig()
	for _, gen := range Generators() {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := gen.Generate(n, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s(n=%d): %v allocs, want ≤ %d", gen.Name(), n, allocs, maxAllocs)
		}
		// The shared array must not leak between messages: growing one
		// message's Deps leaves every other message's intact.
		g, err := gen.Generate(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Messages {
			_ = append(m.Deps, -1)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s(n=%d): appending to one Deps clobbered another: %v", gen.Name(), n, err)
		}
	}
}
