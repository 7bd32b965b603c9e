// Package npb synthesizes the communication traces of the four NAS Parallel
// Benchmark kernels the paper evaluates (FT, CG, MG, LU) for 256 ranks on a
// 16×16 grid, Class A scaled.
//
// The paper captured real MPICL traces on a Cray XE6m; those traces are not
// available, so this package generates the *documented point-to-point
// structure* of each kernel instead — which is sufficient because the paper
// itself discards all temporal detail beyond injection bandwidth and uses
// only flit counts between source-destination pairs. The spatial character
// of each kernel is what drives Fig. 6:
//
//	FT  — pairwise all-to-all transposes (benefits from all express hops)
//	CG  — power-of-two partner exchanges within processor-grid rows
//	      (short range; benefits most from hops=3)
//	MG  — V-cycle ghost exchanges at doubling strides with periodic
//	      (wraparound) boundaries, so coarse levels and boundary ranks
//	      produce near-full-row routes (benefits most from hops=15)
//	LU  — 2-D pipelined wavefront sweeps between immediate neighbours
//	      (1-hop traffic; express links barely help)
//
// Ranks map to nodes identically (rank i = node i, row-major), matching the
// natural placement of a 16×16 job on a 16×16 NoC.
package npb

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Kernel selects a benchmark.
type Kernel int

const (
	// FT is the 3-D FFT kernel (all-to-all transpose).
	FT Kernel = iota
	// CG is the conjugate-gradient kernel (power-of-two row exchanges).
	CG
	// MG is the multigrid kernel (strided ghost exchange, periodic).
	MG
	// LU is the SSOR wavefront kernel (nearest-neighbour pipelining).
	LU
)

// Kernels lists all four in presentation order (as in Fig. 6).
var Kernels = []Kernel{FT, CG, MG, LU}

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case FT:
		return "FT"
	case CG:
		return "CG"
	case MG:
		return "MG"
	case LU:
		return "LU"
	}
	if s, ok := extString(k); ok {
		return s
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ParseKernel resolves a kernel name.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "FT", "ft":
		return FT, nil
	case "CG", "cg":
		return CG, nil
	case "MG", "mg":
		return MG, nil
	case "LU", "lu":
		return LU, nil
	}
	if k, ok := extParse(s); ok {
		return k, nil
	}
	return 0, fmt.Errorf("npb: unknown kernel %q", s)
}

// Config parameterizes trace synthesis.
type Config struct {
	// Kernel is the benchmark to synthesize.
	Kernel Kernel
	// GridW and GridH give the rank grid (paper: 16×16 = 256 ranks).
	GridW, GridH int
	// Scale multiplies all message volumes relative to Class A; the
	// default 1/16 keeps full-trace simulations in the seconds range
	// while preserving every communication edge and relative volume.
	Scale float64
	// Iterations overrides the kernel's default iteration count when
	// positive.
	Iterations int
	// PhaseGapCycles separates successive communication phases; when 0 a
	// kernel-appropriate default is used.
	PhaseGapCycles int64
	// InjectionFactor stretches intra-phase send spacing: a factor F
	// paces each rank at ~1/F flits per cycle, emulating the compute
	// time between sends. The default 8 puts per-node injection near the
	// paper's 0.1 flits/cycle operating point instead of saturating the
	// NoC with back-to-back sends.
	InjectionFactor float64
	// Seed drives the deterministic shuffling of intra-phase send order.
	Seed int64
}

// DefaultConfig returns the paper's setup for a kernel: 256 ranks on 16×16,
// Class A volumes scaled by 1/16.
func DefaultConfig(k Kernel) Config {
	return Config{Kernel: k, GridW: 16, GridH: 16, Scale: 1.0 / 16, Seed: 1, InjectionFactor: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GridW < 2 || c.GridH < 2 {
		return fmt.Errorf("npb: grid %dx%d too small", c.GridW, c.GridH)
	}
	if c.Scale <= 0 || c.Scale > 16 {
		return fmt.Errorf("npb: scale %v out of (0,16]", c.Scale)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("npb: negative iterations")
	}
	if c.PhaseGapCycles < 0 {
		return fmt.Errorf("npb: negative phase gap")
	}
	if c.InjectionFactor < 0 {
		return fmt.Errorf("npb: negative injection factor")
	}
	return nil
}

// Class A reference volumes (bytes) before scaling. Derived from the Class A
// problem sizes on 256 ranks: FT transposes a 256×256×128 complex grid
// (≈2 KiB per pair per transpose); CG partitions a 14000-row matrix
// (≈7 KiB per partner exchange); MG's finest-level ghost faces on a 256³
// grid are ≈2 KiB, halving per level; LU exchanges ≈1 KiB pencil faces per
// sweep step.
const (
	ftBytesPerPair   = 2048
	cgBytesPerXfer   = 7168
	mgBytesFinest    = 2048
	luBytesPerStep   = 1024
	ftDefaultIters   = 3
	cgDefaultIters   = 15
	mgDefaultIters   = 4
	luDefaultIters   = 12
	mgLevels         = 5
	minMessageBytes  = 8
	defaultPhaseScal = 3 // phase gap = injection time × this
)

// Generate synthesizes the event trace for a configuration.
func Generate(cfg Config) ([]trace.Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Kernel {
	case FT:
		return genFT(cfg), nil
	case CG:
		return genCG(cfg), nil
	case MG:
		return genMG(cfg), nil
	case LU:
		return genLU(cfg), nil
	}
	if ev, ok := extGenerate(cfg); ok {
		return ev, nil
	}
	return nil, fmt.Errorf("npb: unknown kernel %v", cfg.Kernel)
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg Config) []trace.Event {
	ev, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ev
}

func scaleBytes(base int64, scale float64) int64 {
	b := int64(float64(base) * scale)
	if b < minMessageBytes {
		b = minMessageBytes
	}
	return b
}

func (c Config) rank(x, y int) int { return y*c.GridW + x }

// factor returns the injection pacing factor (default 8).
func (c Config) factor() float64 {
	if c.InjectionFactor > 0 {
		return c.InjectionFactor
	}
	return 8
}

// spacing returns the paced cycle gap between successive sends of one rank
// for messages of the given size.
func (c Config) spacing(bytes int64) int64 {
	flits := (bytes + 7) / 8
	sp := int64(float64(flits) * c.factor())
	if sp < 1 {
		sp = 1
	}
	return sp
}

func (c Config) iters(def int) int {
	if c.Iterations > 0 {
		return c.Iterations
	}
	return def
}

// phaseGap returns the inter-phase spacing: explicitly configured, or sized
// from the per-source injection time of the phase's heaviest sender.
func (c Config) phaseGap(maxSrcBytes int64) int64 {
	if c.PhaseGapCycles > 0 {
		return c.PhaseGapCycles
	}
	flits := (maxSrcBytes + 7) / 8
	gap := int64(float64(flits)*c.factor()) * defaultPhaseScal / 2
	if gap < 256 {
		gap = 256
	}
	return gap
}

// genFT: per iteration, one pairwise all-to-all transpose — every rank
// sends to every other rank. Send order is shuffled per source so the
// all-to-all does not synchronize into a convoy, as in real FT where each
// rank walks the exchange schedule from a different offset.
func genFT(cfg Config) []trace.Event {
	n := cfg.GridW * cfg.GridH
	bytes := scaleBytes(ftBytesPerPair, cfg.Scale)
	rng := rand.New(rand.NewSource(cfg.Seed))
	perSrc := int64(n-1) * bytes
	gap := cfg.phaseGap(perSrc)
	iters := cfg.iters(ftDefaultIters)
	events := make([]trace.Event, 0, iters*n*(n-1))
	serial := cfg.spacing(bytes)
	for it := 0; it < iters; it++ {
		start := int64(it) * gap
		for s := 0; s < n; s++ {
			order := rng.Perm(n)
			t := start
			for _, d := range order {
				if d == s {
					continue
				}
				events = append(events, trace.Event{Cycle: t, Src: s, Dst: d, Bytes: bytes})
				t += serial
			}
		}
	}
	return events
}

// genCG: per iteration, each rank exchanges with its row partners at
// power-of-two offsets (x XOR 1, 2, 4, 8): the classic CG reduction
// butterfly across the processor-grid row. Mean mesh distance ≈ 3.75 hops —
// the short-range profile the paper highlights.
func genCG(cfg Config) []trace.Event {
	bytes := scaleBytes(cgBytesPerXfer, cfg.Scale)
	serial := cfg.spacing(bytes)
	var offsets []int
	for o := 1; o < cfg.GridW; o <<= 1 {
		offsets = append(offsets, o)
	}
	perSrc := int64(len(offsets)) * bytes
	gap := cfg.phaseGap(perSrc)
	var events []trace.Event
	for it := 0; it < cfg.iters(cgDefaultIters); it++ {
		start := int64(it) * gap
		for y := 0; y < cfg.GridH; y++ {
			for x := 0; x < cfg.GridW; x++ {
				t := start
				for _, o := range offsets {
					px := x ^ o
					if px >= cfg.GridW {
						continue
					}
					events = append(events, trace.Event{
						Cycle: t, Src: cfg.rank(x, y), Dst: cfg.rank(px, y), Bytes: bytes,
					})
					t += serial
				}
			}
		}
	}
	return events
}

// genMG: per V-cycle, ghost exchanges at strides 1, 2, 4, … in both
// dimensions with periodic wraparound (Class A MG has periodic boundaries),
// message sizes halving per level. Wraparound turns boundary exchanges into
// (0 ↔ W−1) routes that span the whole row/column — the long-range traffic
// that makes MG the biggest winner from hops=15 in Fig. 6.
func genMG(cfg Config) []trace.Event {
	var events []trace.Event
	finest := scaleBytes(mgBytesFinest, cfg.Scale)
	// Heaviest sender volume per phase: 4 directions at the finest level.
	gap := cfg.phaseGap(4 * finest)
	for it := 0; it < cfg.iters(mgDefaultIters); it++ {
		start := int64(it) * gap
		levelStart := start
		for lvl := 0; lvl < mgLevels; lvl++ {
			stride := 1 << lvl
			if stride >= cfg.GridW && stride >= cfg.GridH {
				break
			}
			bytes := finest >> lvl
			if bytes < minMessageBytes {
				bytes = minMessageBytes
			}
			serial := cfg.spacing(bytes)
			for y := 0; y < cfg.GridH; y++ {
				for x := 0; x < cfg.GridW; x++ {
					s := cfg.rank(x, y)
					t := levelStart
					// ±x and ±y with wraparound.
					dsts := []int{
						cfg.rank((x+stride)%cfg.GridW, y),
						cfg.rank(((x-stride)%cfg.GridW+cfg.GridW)%cfg.GridW, y),
						cfg.rank(x, (y+stride)%cfg.GridH),
						cfg.rank(x, ((y-stride)%cfg.GridH+cfg.GridH)%cfg.GridH),
					}
					for _, d := range dsts {
						if d == s {
							continue
						}
						events = append(events, trace.Event{Cycle: t, Src: s, Dst: d, Bytes: bytes})
						t += serial
					}
				}
			}
			levelStart += gap / mgLevels
		}
	}
	return events
}

// genLU: per iteration, two pipelined wavefront sweeps: lower sweep sends
// to (x+1, y) and (x, y+1), upper sweep to (x−1, y) and (x, y−1), staggered
// along the anti-diagonal like the real SSOR pipeline. All traffic is
// 1-hop, so express links cannot help — the paper's flat LU bars.
func genLU(cfg Config) []trace.Event {
	bytes := scaleBytes(luBytesPerStep, cfg.Scale)
	serial := cfg.spacing(bytes)
	gap := cfg.phaseGap(2 * bytes * int64(cfg.GridW+cfg.GridH))
	var events []trace.Event
	for it := 0; it < cfg.iters(luDefaultIters); it++ {
		start := int64(it) * gap
		for y := 0; y < cfg.GridH; y++ {
			for x := 0; x < cfg.GridW; x++ {
				s := cfg.rank(x, y)
				// Wavefront position staggers the release.
				t := start + int64(x+y)*serial
				if x+1 < cfg.GridW {
					events = append(events, trace.Event{Cycle: t, Src: s, Dst: cfg.rank(x+1, y), Bytes: bytes})
				}
				if y+1 < cfg.GridH {
					events = append(events, trace.Event{Cycle: t + serial, Src: s, Dst: cfg.rank(x, y+1), Bytes: bytes})
				}
				// Reverse sweep.
				rt := start + gap/2 + int64((cfg.GridW-1-x)+(cfg.GridH-1-y))*serial
				if x > 0 {
					events = append(events, trace.Event{Cycle: rt, Src: s, Dst: cfg.rank(x-1, y), Bytes: bytes})
				}
				if y > 0 {
					events = append(events, trace.Event{Cycle: rt + serial, Src: s, Dst: cfg.rank(x, y-1), Bytes: bytes})
				}
			}
		}
	}
	return events
}
