package traffic

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/topology"
)

// Pattern is a named synthetic traffic generator: given a network and a
// peak per-node injection rate it produces a rate matrix whose MaxRowSum
// equals the rate (silent sources are allowed, e.g. the transpose
// diagonal). Patterns are pure functions of (network, rate) — no RNG — so
// every sweep built on them inherits the repository's determinism
// contract for free.
//
// The classic permutations stress spatial structure the Soteriou model
// averages away: transpose and tornado load one dimension asymmetrically
// (adversarial for the paper's horizontal-only express links), while
// bit-reversal and shuffle maximize path diversity pressure.
type Pattern interface {
	// Name is the registry key (lower-case, stable).
	Name() string
	// Description is a one-line formula summary for docs and CLIs.
	Description() string
	// Generate builds the matrix for a network at the given peak rate.
	// It fails when the pattern's structural preconditions (square grid,
	// power-of-two node count, …) do not hold.
	Generate(net *topology.Network, rate float64) (*Matrix, error)
}

// funcPattern adapts a generator function to the Pattern interface.
type funcPattern struct {
	name, desc string
	gen        func(net *topology.Network, rate float64) (*Matrix, error)
}

func (p funcPattern) Name() string        { return p.name }
func (p funcPattern) Description() string { return p.desc }
func (p funcPattern) Generate(net *topology.Network, rate float64) (*Matrix, error) {
	return p.gen(net, rate)
}

// registry maps pattern names to implementations; order preserves
// registration so listings are stable.
var (
	registry      = map[string]Pattern{}
	registryOrder []string
)

// Register adds a pattern to the registry. It panics on a duplicate or
// empty name — registration is an init-time programming act, not runtime
// input handling.
func Register(p Pattern) {
	name := strings.ToLower(p.Name())
	if name == "" {
		panic("traffic: pattern with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("traffic: duplicate pattern %q", name))
	}
	registry[name] = p
	registryOrder = append(registryOrder, name)
}

// Lookup resolves a registry name (case-insensitive). The error lists the
// known names so CLI users can self-serve.
func Lookup(name string) (Pattern, error) {
	p, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown pattern %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// Names returns the registered pattern names in registration order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// Patterns returns every registered pattern in registration order.
func Patterns() []Pattern {
	out := make([]Pattern, 0, len(registryOrder))
	for _, n := range registryOrder {
		out = append(out, registry[n])
	}
	return out
}

// ParsePatterns resolves a comma-separated list of registry names; the
// single token "all" selects the whole registry. Duplicates are dropped,
// keeping the first occurrence. Every error names the registered
// patterns, so CLI users can self-serve from the message.
func ParsePatterns(spec string) ([]Pattern, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return Patterns(), nil
	}
	var out []Pattern
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, err := Lookup(tok)
		if err != nil {
			return nil, err
		}
		if !seen[p.Name()] {
			seen[p.Name()] = true
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("traffic: empty pattern list %q (registered: %s, or \"all\")",
			spec, strings.Join(Names(), ", "))
	}
	return out, nil
}

// permutation builds a streamed matrix from a source→destination map:
// every node with a distinct image sends its whole rate there; fixed
// points stay silent (standard for transpose diagonals and odd-node bit
// complement). Only the O(n) image table is stored.
func permutation(net *topology.Network, rate float64, dst func(s int) int) *Matrix {
	n := net.NumNodes()
	to := make([]int32, n)
	for s := 0; s < n; s++ {
		to[s] = int32(dst(s))
	}
	return newStreamed(n, &permGen{n: n, peak: rate, to: to}, 1)
}

// requireSquare rejects non-square grids for coordinate-swap patterns.
func requireSquare(net *topology.Network, name string) error {
	if net.Width != net.Height {
		return fmt.Errorf("traffic: %s needs a square grid, got %dx%d",
			name, net.Width, net.Height)
	}
	return nil
}

// requirePow2 rejects node counts that are not powers of two for
// bit-indexed patterns, returning the index width in bits.
func requirePow2(net *topology.Network, name string) (int, error) {
	n := net.NumNodes()
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("traffic: %s needs a power-of-two node count, got %d", name, n)
	}
	return bits.Len(uint(n)) - 1, nil
}

func genUniform(net *topology.Network, rate float64) (*Matrix, error) {
	n := net.NumNodes()
	return newStreamed(n, uniformGen{n: n, per: rate / float64(n-1)}, 1), nil
}

func genTranspose(net *topology.Network, rate float64) (*Matrix, error) {
	if err := requireSquare(net, "transpose"); err != nil {
		return nil, err
	}
	return permutation(net, rate, func(s int) int {
		src := topology.NodeID(s)
		return int(net.Node(net.Y(src), net.X(src)))
	}), nil
}

func genBitComplement(net *topology.Network, rate float64) (*Matrix, error) {
	n := net.NumNodes()
	return permutation(net, rate, func(s int) int { return n - 1 - s }), nil
}

func genBitReversal(net *topology.Network, rate float64) (*Matrix, error) {
	b, err := requirePow2(net, "bit-reversal")
	if err != nil {
		return nil, err
	}
	return permutation(net, rate, func(s int) int {
		return int(bits.Reverse(uint(s)) >> (bits.UintSize - b))
	}), nil
}

func genShuffle(net *topology.Network, rate float64) (*Matrix, error) {
	b, err := requirePow2(net, "shuffle")
	if err != nil {
		return nil, err
	}
	n := net.NumNodes()
	return permutation(net, rate, func(s int) int {
		return (s<<1 | s>>(b-1)) & (n - 1)
	}), nil
}

func genTornado(net *topology.Network, rate float64) (*Matrix, error) {
	// Dally & Towles' tornado applied to the row dimension: each node
	// sends ⌈W/2⌉−1 hops to the right (mod W), halfway around the row —
	// the worst case for minimal routing and exactly the flow the paper's
	// horizontal express links exist to absorb.
	shift := (net.Width+1)/2 - 1
	if shift == 0 {
		return nil, fmt.Errorf("traffic: tornado degenerate on width %d (< 3)", net.Width)
	}
	return permutation(net, rate, func(s int) int {
		src := topology.NodeID(s)
		return int(net.Node((net.X(src)+shift)%net.Width, net.Y(src)))
	}), nil
}

func genNeighbor(net *topology.Network, rate float64) (*Matrix, error) {
	return newStreamed(net.NumNodes(), &neighborGen{net: net, peak: rate}, 1), nil
}

// Hotspot concentrates a fraction of every node's traffic on a small set
// of hot destinations, spreading the rest uniformly — the classic model
// of shared-resource contention (memory controllers, directories).
type Hotspot struct {
	// Fraction of each source's rate aimed at the hot set, split evenly
	// across it; must lie in (0, 1].
	Fraction float64
	// Nodes are the hot destinations; empty selects the grid's center
	// node (⌊W/2⌋, ⌊H/2⌋).
	Nodes []topology.NodeID
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Description implements Pattern.
func (h Hotspot) Description() string {
	return fmt.Sprintf("%.0f%% of traffic to %s, rest uniform",
		h.Fraction*100, h.describeNodes())
}

func (h Hotspot) describeNodes() string {
	if len(h.Nodes) == 0 {
		return "the center node"
	}
	return fmt.Sprintf("%d hot nodes", len(h.Nodes))
}

// Generate implements Pattern.
func (h Hotspot) Generate(net *topology.Network, rate float64) (*Matrix, error) {
	if h.Fraction <= 0 || h.Fraction > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction %v out of (0,1]", h.Fraction)
	}
	n := net.NumNodes()
	// Copy the hot list: the generator outlives this call and must not
	// alias caller-owned memory.
	hot := append([]topology.NodeID(nil), h.Nodes...)
	if len(hot) == 0 {
		hot = []topology.NodeID{net.Node(net.Width/2, net.Height/2)}
	}
	isHot := make([]bool, n)
	for _, id := range hot {
		if int(id) < 0 || int(id) >= n {
			return nil, fmt.Errorf("traffic: hotspot node %d outside %d-node network", id, n)
		}
		if isHot[id] {
			return nil, fmt.Errorf("traffic: duplicate hotspot node %d", id)
		}
		isHot[id] = true
	}
	// Hot share: split across hot destinations other than the source
	// itself; a source that is the only hot node spreads its share
	// uniformly instead, so every row still sums to rate (see
	// hotspotGen.split).
	g := &hotspotGen{n: n, peak: rate, fraction: h.Fraction, hot: hot, isHot: isHot}
	return newStreamed(n, g, 1), nil
}

// DefaultHotspotFraction is the registry default: 20% of every node's
// traffic converges on the center node, a mild but clearly visible
// contention point at the paper's injection rates.
const DefaultHotspotFraction = 0.2

func init() {
	Register(funcPattern{"uniform",
		"every node sends rate/(N−1) to each other node", genUniform})
	Register(funcPattern{"transpose",
		"(x,y) → (y,x); diagonal nodes silent", genTranspose})
	Register(funcPattern{"bitcomp",
		"node i → node (N−1−i), corner-to-corner", genBitComplement})
	Register(funcPattern{"bitrev",
		"node i → reverse of i's log₂N-bit index", genBitReversal})
	Register(funcPattern{"shuffle",
		"node i → rotate-left-1 of i's log₂N-bit index", genShuffle})
	Register(funcPattern{"tornado",
		"(x,y) → ((x+⌈W/2⌉−1) mod W, y), halfway around the row", genTornado})
	Register(funcPattern{"neighbor",
		"rate split evenly over the 2–4 mesh neighbors", genNeighbor})
	Register(Hotspot{Fraction: DefaultHotspotFraction})
}
