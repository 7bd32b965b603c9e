package taskgraph

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// GenConfig parameterizes the generators. The zero value is invalid; start
// from DefaultGenConfig.
type GenConfig struct {
	// SizeFlits is the full payload one rank contributes (a collective
	// that chunks divides this, never below one flit per message).
	SizeFlits int
	// ComputeClks is the modeled compute between receiving inputs and
	// sending the dependent message (reduction op, expert FFN, pipeline
	// stage forward pass). Pure forwarding steps use zero.
	ComputeClks int64
	// Microbatches is the pipeline generator's microbatch count.
	Microbatches int
}

// DefaultGenConfig is a mid-size operator: a 32-flit payload (the paper's
// long packet), a 16-clock compute step, four pipeline microbatches.
func DefaultGenConfig() GenConfig {
	return GenConfig{SizeFlits: 32, ComputeClks: 16, Microbatches: 4}
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	if c.SizeFlits <= 0 {
		return fmt.Errorf("taskgraph: non-positive size %d flits", c.SizeFlits)
	}
	if c.ComputeClks < 0 {
		return fmt.Errorf("taskgraph: negative compute %d clks", c.ComputeClks)
	}
	if c.Microbatches <= 0 {
		return fmt.Errorf("taskgraph: non-positive microbatch count %d", c.Microbatches)
	}
	return nil
}

// chunk divides a payload across k messages, never below one flit.
func chunk(sizeFlits, k int) int {
	if k < 1 {
		k = 1
	}
	if c := sizeFlits / k; c > 0 {
		return c
	}
	return 1
}

// Generator is a named task-graph builder: a pure function of (node count,
// config) — no RNG — so sweeps over generated graphs are deterministic by
// construction, like the traffic-pattern registry.
type Generator interface {
	// Name is the registry key (lower-case, stable).
	Name() string
	// Description is a one-line structure summary for docs and CLIs.
	Description() string
	// Generate builds the DAG for a node count. It fails when the
	// workload's structural preconditions (≥2 nodes, …) do not hold.
	Generate(numNodes int, cfg GenConfig) (*Graph, error)
}

// funcGenerator adapts a builder function to the Generator interface.
type funcGenerator struct {
	name, desc string
	gen        func(n int, cfg GenConfig) (*Graph, error)
}

func (g funcGenerator) Name() string        { return g.name }
func (g funcGenerator) Description() string { return g.desc }
func (g funcGenerator) Generate(n int, cfg GenConfig) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("taskgraph: %s needs ≥2 nodes, got %d", g.name, n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return g.gen(n, cfg)
}

// registry maps generator names to implementations; order preserves
// registration so listings are stable.
var (
	registry      = map[string]Generator{}
	registryOrder []string
)

// Register adds a generator to the registry. It panics on a duplicate or
// empty name — registration is an init-time programming act, not runtime
// input handling.
func Register(g Generator) {
	name := strings.ToLower(g.Name())
	if name == "" {
		panic("taskgraph: generator with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("taskgraph: duplicate generator %q", name))
	}
	registry[name] = g
	registryOrder = append(registryOrder, name)
}

// Lookup resolves a registry name (case-insensitive). The error lists the
// known names so CLI users can self-serve.
func Lookup(name string) (Generator, error) {
	g, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("taskgraph: unknown generator %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return g, nil
}

// Names returns the registered generator names in registration order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// Generators returns every registered generator in registration order.
func Generators() []Generator {
	out := make([]Generator, 0, len(registryOrder))
	for _, n := range registryOrder {
		out = append(out, registry[n])
	}
	return out
}

// ParseGenerators resolves a comma-separated list of registry names; the
// single token "all" selects the whole registry. Duplicates are dropped,
// keeping the first occurrence.
func ParseGenerators(spec string) ([]Generator, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return Generators(), nil
	}
	var out []Generator
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		g, err := Lookup(tok)
		if err != nil {
			return nil, err
		}
		if !seen[g.Name()] {
			seen[g.Name()] = true
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("taskgraph: empty generator list %q (registered: %s, or \"all\")",
			spec, strings.Join(Names(), ", "))
	}
	return out, nil
}

// genReduce is the binomial-tree reduce to node 0: in the round with
// stride s, every node ≡ s (mod 2s) sends its partial sum to node−s. A
// sender's message depends on everything it received in earlier rounds
// (it cannot reduce what has not arrived), with ComputeClks for the
// reduction op. ⌈log₂N⌉ rounds, N−1 messages.
func genReduce(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "reduce", NumNodes: n}
	buildReduce(g, n, cfg)
	return g, nil
}

// buildReduce appends the binomial reduce-to-0 messages to g and returns
// the indices of the messages node 0 received (the root's inputs), so
// tree-allreduce can hang the broadcast off them.
func buildReduce(g *Graph, n int, cfg GenConfig) []int {
	recv := make([][]int, n)
	for stride := 1; stride < n; stride *= 2 {
		for src := stride; src < n; src += 2 * stride {
			dst := src - stride
			idx := len(g.Messages)
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(src),
				Dst:         topology.NodeID(dst),
				SizeFlits:   cfg.SizeFlits,
				ComputeClks: cfg.ComputeClks,
				Deps:        append([]int(nil), recv[src]...),
			})
			recv[dst] = append(recv[dst], idx)
		}
	}
	return recv[0]
}

// genBroadcast is the binomial-tree broadcast from node 0 — the reduce
// tree run in reverse. The root's sends carry ComputeClks (the producer);
// forwards are pure copies and carry zero.
func genBroadcast(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "broadcast", NumNodes: n}
	buildBroadcast(g, n, cfg, nil)
	return g, nil
}

// buildBroadcast appends the binomial broadcast-from-0 messages to g. The
// root's sends depend on rootDeps (nil for a standalone broadcast).
func buildBroadcast(g *Graph, n int, cfg GenConfig, rootDeps []int) {
	// recvMsg[i] is the message by which node i obtained the value.
	recvMsg := make([]int, n)
	for i := range recvMsg {
		recvMsg[i] = -1
	}
	top := 1
	for top*2 < n {
		top *= 2
	}
	for stride := top; stride >= 1; stride /= 2 {
		for dst := stride; dst < n; dst += 2 * stride {
			src := dst - stride
			var deps []int
			var off int64
			switch {
			case src == 0:
				deps = append([]int(nil), rootDeps...)
				off = cfg.ComputeClks
			default:
				deps = []int{recvMsg[src]}
			}
			idx := len(g.Messages)
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(src),
				Dst:         topology.NodeID(dst),
				SizeFlits:   cfg.SizeFlits,
				ComputeClks: off,
				Deps:        deps,
			})
			recvMsg[dst] = idx
		}
	}
}

// genRingAllReduce is the bandwidth-optimal chunked ring: the payload is
// split into N chunks and every node sends one chunk per step to its ring
// successor for 2(N−1) steps — N−1 reduce-scatter steps (each send waits
// on the previous step's receive plus the reduction compute) then N−1
// all-gather steps (pure forwards). 2N(N−1) messages.
func genRingAllReduce(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "ring-allreduce", NumNodes: n}
	size := chunk(cfg.SizeFlits, n)
	ringSteps(g, n, 2*(n-1), size, func(step int) int64 {
		if step < n-1 {
			return cfg.ComputeClks // reduce-scatter: add before forwarding
		}
		return 0 // all-gather: pure forward
	})
	return g, nil
}

// genAllGather is the attention all-gather: every rank's KV shard travels
// the ring, so each node sends a full shard per step for N−1 steps. The
// first step carries ComputeClks (projecting the shard); forwards are
// free. N(N−1) messages.
func genAllGather(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "allgather", NumNodes: n}
	ringSteps(g, n, n-1, cfg.SizeFlits, func(step int) int64 {
		if step == 0 {
			return cfg.ComputeClks
		}
		return 0
	})
	return g, nil
}

// ringSteps appends steps×N ring messages: in each step every node sends
// to (node+1) mod N, depending on the message it received the step before.
// compute(step) is the release offset of that step's sends (absolute for
// step 0, which has no dependencies).
func ringSteps(g *Graph, n, steps, sizeFlits int, compute func(step int) int64) {
	prev := make([]int, n) // message node i received in the previous step
	cur := make([]int, n)
	for step := 0; step < steps; step++ {
		off := compute(step)
		for i := 0; i < n; i++ {
			var deps []int
			if step > 0 {
				deps = []int{prev[i]}
			}
			idx := len(g.Messages)
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(i),
				Dst:         topology.NodeID((i + 1) % n),
				SizeFlits:   sizeFlits,
				ComputeClks: off,
				Deps:        deps,
			})
			cur[(i+1)%n] = idx
		}
		prev, cur = cur, prev
	}
}

// genTreeAllReduce composes the binomial reduce with the binomial
// broadcast: the root's first broadcast sends depend on every reduce
// message it received. 2(N−1) messages, 2⌈log₂N⌉ sequential rounds.
func genTreeAllReduce(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "tree-allreduce", NumNodes: n}
	rootRecv := buildReduce(g, n, cfg)
	buildBroadcast(g, n, cfg, rootRecv)
	return g, nil
}

// genMoEAllToAll is the MoE dispatch/combine pair: every ordered pair
// exchanges a 1/(N−1) token shard (router gating as the dispatch offset),
// and each combine message i→j depends on the matching dispatch j→i
// through the expert compute. 2N(N−1) messages, all pairs concurrent —
// the densest communication phase in the registry.
func genMoEAllToAll(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "moe-alltoall", NumNodes: n}
	size := chunk(cfg.SizeFlits, n-1)
	dispatch := make([]int, n*n) // dispatch[i*n+j] = index of message i→j
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dispatch[i*n+j] = len(g.Messages)
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(i),
				Dst:         topology.NodeID(j),
				SizeFlits:   size,
				ComputeClks: cfg.ComputeClks,
			})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// Expert on node i returns j's tokens once they arrived.
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(i),
				Dst:         topology.NodeID(j),
				SizeFlits:   size,
				ComputeClks: cfg.ComputeClks,
				Deps:        []int{dispatch[j*n+i]},
			})
		}
	}
	return g, nil
}

// genPipeline is pipeline-parallel point-to-point: the nodes form a stage
// chain 0→1→…→N−1 and M microbatches flow down it. Stage 0 releases
// microbatch m at (m+1)·ComputeClks (sequential forward passes); every
// later stage forwards a microbatch ComputeClks after receiving it.
// M(N−1) messages; with zero contention the makespan is exactly the
// classic (M+N−2)-slot pipeline schedule.
func genPipeline(n int, cfg GenConfig) (*Graph, error) {
	g := &Graph{Name: "pipeline", NumNodes: n}
	prev := make([]int, cfg.Microbatches) // prev[m] = message (stage-1 → stage) of microbatch m
	for stage := 0; stage < n-1; stage++ {
		for m := 0; m < cfg.Microbatches; m++ {
			var deps []int
			off := cfg.ComputeClks
			if stage == 0 {
				off = int64(m+1) * cfg.ComputeClks
			} else {
				deps = []int{prev[m]}
			}
			prev[m] = len(g.Messages)
			g.Messages = append(g.Messages, Message{
				Src:         topology.NodeID(stage),
				Dst:         topology.NodeID(stage + 1),
				SizeFlits:   cfg.SizeFlits,
				ComputeClks: off,
				Deps:        deps,
			})
		}
	}
	return g, nil
}

func init() {
	Register(funcGenerator{"reduce",
		"binomial-tree reduce to node 0: ⌈log₂N⌉ rounds, N−1 messages", genReduce})
	Register(funcGenerator{"broadcast",
		"binomial-tree broadcast from node 0: the reduce tree reversed", genBroadcast})
	Register(funcGenerator{"ring-allreduce",
		"chunked ring: N−1 reduce-scatter + N−1 all-gather steps, size/N chunks", genRingAllReduce})
	Register(funcGenerator{"tree-allreduce",
		"binomial reduce then broadcast; root sends gated on all reduce inputs", genTreeAllReduce})
	Register(funcGenerator{"allgather",
		"attention all-gather: every shard rides the ring N−1 steps", genAllGather})
	Register(funcGenerator{"moe-alltoall",
		"MoE dispatch+combine: all pairs exchange size/(N−1) shards, combine gated on dispatch", genMoEAllToAll})
	Register(funcGenerator{"pipeline",
		"stage chain 0→…→N−1, M microbatches, stage compute between hops", genPipeline})
}
