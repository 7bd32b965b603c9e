// Topology kinds: a named registry of network families, mirroring the
// traffic-pattern registry. Every kind wires its links through the same
// Link/NodeID model, so the routing builders, the analytic evaluator and
// the cycle-accurate simulator work on any registered kind unchanged.
//
// Registered kinds:
//
//   - mesh  — the paper's W×H grid, optionally with express channels
//     (Fig. 2); radix ≤ 5 (7 with express), distance = Manhattan.
//   - torus — the mesh plus row/column wrap channels; the wraps are
//     dateline channels (deadlock-free with 2+ VCs, exactly like the
//     paper's hops = W−1 "effectively a 2D torus" configuration); radix 5,
//     distance = folded Manhattan min(|Δ|, W−|Δ|) per dimension.
//   - cmesh — concentrated mesh: each router serves c cores, shrinking a
//     W·√c × H·√c core array onto a W×H router grid with √c-scaled link
//     pitch; radix c+4, distance = Manhattan on the router grid.
//   - fbfly — 2-D flattened butterfly: every router links to every other
//     router of its row and of its column; radix (W−1)+(H−1)+1, distance
//     = (x differs) + (y differs) ≤ 2.
package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind names a registered topology family. The zero value selects Mesh,
// so configurations predating the registry build unchanged.
type Kind string

// The built-in kinds.
const (
	Mesh  Kind = "mesh"
	Torus Kind = "torus"
	CMesh Kind = "cmesh"
	FBFly Kind = "fbfly"
)

// DefaultConcentration is the cmesh cores-per-router factor applied when
// Config.Concentration is zero: the classic 4-to-1 concentration (a 2×2
// core quad per router).
const DefaultConcentration = 4

// KindSpec describes one registered topology family. All fields are
// read-only after registration.
type KindSpec struct {
	// Name is the registry key (lower-case, stable).
	Name Kind
	// Description is a one-line formula summary (radix, bisection,
	// distance) for docs and CLIs.
	Description string
	// Deadlock documents the virtual-channel strategy that keeps routing
	// deadlock-free on this kind.
	Deadlock string
	// Monotone reports whether the dimension-ordered monotone table
	// construction (routing.MonotoneExpress) applies: movement within a
	// dimension phase is a line or dateline-annotated ring. Kinds without
	// it fall back to the generic shortest-path table.
	Monotone bool
	// Validate checks kind-specific constraints beyond the common ones.
	Validate func(c Config) error
	// Wire appends the kind's channels to a freshly allocated network.
	// Build calls it twice, first to size Links, so it must add the same
	// channels on every call.
	Wire func(c Config, n *Network)
	// Distance returns the minimal hop distance of the kind's base fabric
	// (ignoring express shortcuts).
	Distance func(n *Network, a, b NodeID) int
}

// kindRegistry maps kind names to specs; order preserves registration so
// listings are stable.
var (
	kindRegistry      = map[Kind]*KindSpec{}
	kindRegistryOrder []Kind
)

// RegisterKind adds a topology family to the registry. It panics on a
// duplicate or incomplete spec — registration is an init-time programming
// act, not runtime input handling.
func RegisterKind(s *KindSpec) {
	if s == nil || s.Name == "" {
		panic("topology: kind with empty name")
	}
	name := Kind(strings.ToLower(string(s.Name)))
	if s.Validate == nil || s.Wire == nil || s.Distance == nil {
		panic(fmt.Sprintf("topology: kind %q missing Validate/Wire/Distance", name))
	}
	if _, dup := kindRegistry[name]; dup {
		panic(fmt.Sprintf("topology: duplicate kind %q", name))
	}
	s.Name = name // every registry view agrees on the folded name
	kindRegistry[name] = s
	kindRegistryOrder = append(kindRegistryOrder, name)
}

// LookupKind resolves a registry name (case-insensitive). The error lists
// the known names so CLI users can self-serve.
func LookupKind(name string) (*KindSpec, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(name)))
	if k == "" {
		k = Mesh
	}
	s, ok := kindRegistry[k]
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Kinds returns the registered kind names in registration order.
func Kinds() []Kind {
	out := make([]Kind, len(kindRegistryOrder))
	copy(out, kindRegistryOrder)
	return out
}

// Names returns the registered kind names as plain strings, for CLI flag
// help (the counterpart of traffic.Names).
func Names() []string {
	out := make([]string, len(kindRegistryOrder))
	for i, k := range kindRegistryOrder {
		out[i] = string(k)
	}
	return out
}

// KindSpecs returns every registered spec in registration order.
func KindSpecs() []*KindSpec {
	out := make([]*KindSpec, 0, len(kindRegistryOrder))
	for _, k := range kindRegistryOrder {
		out = append(out, kindRegistry[k])
	}
	return out
}

// ParseKinds resolves a comma-separated list of registry names; the single
// token "all" selects the whole registry. Duplicates are dropped, keeping
// the first occurrence. Every error names the registered kinds, so CLI
// users can self-serve from the message.
func ParseKinds(spec string) ([]Kind, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return Kinds(), nil
	}
	var out []Kind
	seen := map[Kind]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		s, err := LookupKind(tok)
		if err != nil {
			return nil, err
		}
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology: empty kind list %q (registered: %s, or \"all\")",
			spec, strings.Join(Names(), ", "))
	}
	return out, nil
}

// ParseGrid resolves a "WxH" grid specification ("64x64", "16x4"; the
// separator is case-insensitive) into its width and height. It validates
// only the syntax and positivity — kind-specific extent rules stay with
// Config.Validate.
func ParseGrid(spec string) (w, h int, err error) {
	s := strings.TrimSpace(spec)
	i := strings.IndexAny(s, "xX")
	if i < 0 {
		return 0, 0, fmt.Errorf("topology: grid %q not of the form WxH", spec)
	}
	w, errW := strconv.Atoi(strings.TrimSpace(s[:i]))
	h, errH := strconv.Atoi(strings.TrimSpace(s[i+1:]))
	if errW != nil || errH != nil {
		return 0, 0, fmt.Errorf("topology: grid %q not of the form WxH", spec)
	}
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("topology: grid %q must have positive extents", spec)
	}
	return w, h, nil
}

// pitchM returns the router-to-router link pitch: the core spacing scaled
// by √c for concentrated kinds (each router tile covers c cores, so the
// router array is √c times coarser than the core array).
func pitchM(c Config) float64 {
	conc := c.Concentration
	if conc <= 1 {
		return c.CoreSpacingM
	}
	return c.CoreSpacingM * math.Sqrt(float64(conc))
}

// validateMeshFamily holds the grid and express constraints shared by mesh
// and cmesh. The express guards double as the degenerate-geometry fix: a
// grid whose express dimension has extent 1 is rejected here (hops ≥ 1
// can never be below an extent of 1), never handed to the monotone table
// builder.
func validateMeshFamily(c Config) error {
	if c.Width < 2 || c.Height < 1 {
		return fmt.Errorf("topology: %v grid %dx%d too small", c.Kind, c.Width, c.Height)
	}
	if c.ExpressHops > 0 && c.ExpressHops >= c.Width {
		return fmt.Errorf("topology: %v express hops %d must be below width %d", c.Kind, c.ExpressHops, c.Width)
	}
	if c.ExpressBothDims && c.ExpressHops > 0 && c.ExpressHops >= c.Height {
		return fmt.Errorf("topology: %v express hops %d must be below height %d", c.Kind, c.ExpressHops, c.Height)
	}
	return nil
}

// rejectExpress is the validation shared by kinds whose fabric leaves no
// room for express shortcuts.
func rejectExpress(c Config, why string) error {
	if c.ExpressHops != 0 || c.ExpressBothDims {
		return fmt.Errorf("topology: %v does not take express links (%s)", c.Kind, why)
	}
	return nil
}

// wireMesh adds the paper's base mesh channels plus the optional express
// channels (Fig. 2a/2b). cmesh shares it: the only difference is the
// √c-scaled pitch folded in by pitchM.
func wireMesh(c Config, n *Network) {
	pitch := pitchM(c)
	// Base mesh channels: horizontal then vertical neighbours.
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width-1; x++ {
			n.addPair(n.Node(x, y), n.Node(x+1, y), c.BaseTech, pitch, false, false)
		}
	}
	for y := 0; y < c.Height-1; y++ {
		for x := 0; x < c.Width; x++ {
			n.addPair(n.Node(x, y), n.Node(x, y+1), c.BaseTech, pitch, false, false)
		}
	}

	// Horizontal express channels: (0,h), (h,2h), … per row. The paper
	// restricts express links to the horizontal dimension to bound
	// router port counts at 7; hops = extent−1 closes the row or column
	// into a ring, making those channels datelines.
	if c.ExpressHops > 0 {
		h := c.ExpressHops
		for y := 0; y < c.Height; y++ {
			for x := 0; x+h < c.Width; x += h {
				n.addPair(n.Node(x, y), n.Node(x+h, y), c.ExpressTech,
					float64(h)*pitch, true, h == c.Width-1)
			}
		}
		if c.ExpressBothDims {
			for x := 0; x < c.Width; x++ {
				for y := 0; y+h < c.Height; y += h {
					n.addPair(n.Node(x, y), n.Node(x, y+h), c.ExpressTech,
						float64(h)*pitch, true, h == c.Height-1)
				}
			}
		}
	}
}

// wireTorus adds the base mesh channels plus one wrap pair per row and per
// column. Wraps are dateline channels of the base technology: they close
// each line into a ring exactly like the paper's hops = W−1 express
// configuration, and routing must switch VC classes when crossing them.
// The wrap length is the full row/column span (the same straight-routed
// length the paper assigns its row-closure express links).
func wireTorus(c Config, n *Network) {
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width-1; x++ {
			n.addPair(n.Node(x, y), n.Node(x+1, y), c.BaseTech, c.CoreSpacingM, false, false)
		}
	}
	for y := 0; y < c.Height-1; y++ {
		for x := 0; x < c.Width; x++ {
			n.addPair(n.Node(x, y), n.Node(x, y+1), c.BaseTech, c.CoreSpacingM, false, false)
		}
	}
	for y := 0; y < c.Height; y++ {
		n.addPair(n.Node(0, y), n.Node(c.Width-1, y), c.BaseTech,
			float64(c.Width-1)*c.CoreSpacingM, false, true)
	}
	for x := 0; x < c.Width; x++ {
		n.addPair(n.Node(x, 0), n.Node(x, c.Height-1), c.BaseTech,
			float64(c.Height-1)*c.CoreSpacingM, false, true)
	}
}

// wireFBFly fully connects every row and every column: the 2-D flattened
// butterfly collapses a butterfly's stages into one router per grid point
// with direct channels to all row and column peers. Channel length is the
// Manhattan span it covers.
func wireFBFly(c Config, n *Network) {
	for y := 0; y < c.Height; y++ {
		for x1 := 0; x1 < c.Width-1; x1++ {
			for x2 := x1 + 1; x2 < c.Width; x2++ {
				n.addPair(n.Node(x1, y), n.Node(x2, y), c.BaseTech,
					float64(x2-x1)*c.CoreSpacingM, false, false)
			}
		}
	}
	for x := 0; x < c.Width; x++ {
		for y1 := 0; y1 < c.Height-1; y1++ {
			for y2 := y1 + 1; y2 < c.Height; y2++ {
				n.addPair(n.Node(x, y1), n.Node(x, y2), c.BaseTech,
					float64(y2-y1)*c.CoreSpacingM, false, false)
			}
		}
	}
}

// distManhattan is the mesh-family distance: |Δx| + |Δy|.
func distManhattan(n *Network, a, b NodeID) int {
	dx := n.X(a) - n.X(b)
	if dx < 0 {
		dx = -dx
	}
	dy := n.Y(a) - n.Y(b)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// distTorus folds each dimension around its ring: min(|Δ|, extent−|Δ|).
func distTorus(n *Network, a, b NodeID) int {
	dx := n.X(a) - n.X(b)
	if dx < 0 {
		dx = -dx
	}
	if w := n.Width - dx; w < dx {
		dx = w
	}
	dy := n.Y(a) - n.Y(b)
	if dy < 0 {
		dy = -dy
	}
	if w := n.Height - dy; w < dy {
		dy = w
	}
	return dx + dy
}

// distFBFly counts the differing coordinates: one hop reaches any row or
// column peer, so every route is at most two hops.
func distFBFly(n *Network, a, b NodeID) int {
	d := 0
	if n.X(a) != n.X(b) {
		d++
	}
	if n.Y(a) != n.Y(b) {
		d++
	}
	return d
}

func init() {
	RegisterKind(&KindSpec{
		Name: Mesh,
		Description: "W×H grid, optional express channels every h hops; " +
			"radix ≤ 5 (7 hybrid), bisection H ch/dir, distance |Δx|+|Δy|",
		Deadlock: "dimension-ordered X-then-Y; hops = extent−1 closures are " +
			"datelines switching VC class on wrap",
		Monotone: true,
		Validate: validateMeshFamily,
		Wire:     wireMesh,
		Distance: distManhattan,
	})
	RegisterKind(&KindSpec{
		Name: Torus,
		Description: "mesh plus row/column wrap channels; radix 5, " +
			"bisection 2H ch/dir, distance min(|Δ|,W−|Δ|) per dim",
		Deadlock: "dimension-ordered ring phases; wrap channels are datelines " +
			"switching VC class (needs ≥ 2 VCs)",
		Monotone: true,
		Validate: func(c Config) error {
			// Below 3×3 a wrap channel would duplicate a neighbour pair
			// (extent 2) or degenerate into a self-loop (extent 1) —
			// geometries the monotone table builder must never see.
			if c.Width < 3 || c.Height < 3 {
				return fmt.Errorf("topology: torus needs at least a 3x3 grid "+
					"(wraps must be distinct channels), got %dx%d", c.Width, c.Height)
			}
			return rejectExpress(c, "wraparound channels are built in")
		},
		Wire:     wireTorus,
		Distance: distTorus,
	})
	RegisterKind(&KindSpec{
		Name: CMesh,
		Description: "concentrated mesh, c cores per router on a √c-coarser " +
			"grid; radix c+4, distance |Δx|+|Δy| between routers",
		Deadlock: "dimension-ordered X-then-Y, as mesh (concentration only " +
			"widens the local port set)",
		Monotone: true,
		Validate: func(c Config) error {
			if c.Concentration < 1 {
				return fmt.Errorf("topology: cmesh concentration %d must be ≥ 1", c.Concentration)
			}
			return validateMeshFamily(c)
		},
		Wire:     wireMesh,
		Distance: distManhattan,
	})
	RegisterKind(&KindSpec{
		Name: FBFly,
		Description: "2-D flattened butterfly, rows and columns fully " +
			"connected; radix (W−1)+(H−1)+1, distance ≤ 2",
		Deadlock: "minimal 2-hop routes, X before Y (shortest-path table; " +
			"the channel dependency graph is acyclic)",
		Monotone: false, // all-to-all rows: routed by the generic shortest-path fallback
		Validate: func(c Config) error {
			if c.Width < 2 || c.Height < 1 {
				return fmt.Errorf("topology: %v grid %dx%d too small", c.Kind, c.Width, c.Height)
			}
			return rejectExpress(c, "rows and columns are already fully connected")
		},
		Wire:     wireFBFly,
		Distance: distFBFly,
	})
}
