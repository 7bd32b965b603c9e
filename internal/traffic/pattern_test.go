package traffic

import (
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// grid builds a W×H network for pattern tests.
func grid(t testing.TB, w, h int) *topology.Network {
	t.Helper()
	c := topology.DefaultConfig()
	c.Width, c.Height = w, h
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// wantNames is the full registry in registration order; docs and CLIs
// rely on this exact listing.
var wantNames = []string{
	"uniform", "transpose", "bitcomp", "bitrev",
	"shuffle", "tornado", "neighbor", "hotspot",
}

func TestRegistryNames(t *testing.T) {
	got := Names()
	if len(got) != len(wantNames) {
		t.Fatalf("registry has %v, want %v", got, wantNames)
	}
	for i, n := range wantNames {
		if got[i] != n {
			t.Fatalf("registry[%d] = %q, want %q (full: %v)", i, got[i], n, got)
		}
	}
	for _, n := range wantNames {
		p, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, p.Name())
		}
		if p.Description() == "" {
			t.Errorf("pattern %q has no description", n)
		}
	}
}

func TestLookupRejectsUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown pattern must error")
	} else if !strings.Contains(err.Error(), "uniform") {
		t.Errorf("error should list known names, got: %v", err)
	}
	// Case-insensitive hit.
	if _, err := Lookup("Tornado"); err != nil {
		t.Errorf("lookup must be case-insensitive: %v", err)
	}
}

func TestParsePatterns(t *testing.T) {
	all, err := ParsePatterns("all")
	if err != nil || len(all) != len(wantNames) {
		t.Fatalf("ParsePatterns(all) = %d patterns, err %v", len(all), err)
	}
	two, err := ParsePatterns(" tornado , transpose ")
	if err != nil || len(two) != 2 || two[0].Name() != "tornado" || two[1].Name() != "transpose" {
		t.Fatalf("ParsePatterns list broken: %v %v", two, err)
	}
	// Repeats (in any case) are dropped, keeping the first occurrence.
	dup, err := ParsePatterns("uniform,tornado,UNIFORM,tornado")
	if err != nil || len(dup) != 2 || dup[0].Name() != "uniform" || dup[1].Name() != "tornado" {
		t.Errorf("ParsePatterns with repeats = %v, err %v; want [uniform tornado]", dup, err)
	}
	if _, err := ParsePatterns("tornado,bogus"); err == nil {
		t.Error("bogus member must error")
	}
	if _, err := ParsePatterns(" , "); err == nil {
		t.Error("empty list must error")
	}
}

// permutationDest holds the exact golden destination maps on a 4×4 mesh
// (node ids row-major, x = i%4, y = i/4); -1 marks a silent fixed point.
var permutationDest = map[string][16]int{
	// (x,y) → (y,x)
	"transpose": {-1, 4, 8, 12, 1, -1, 9, 13, 2, 6, -1, 14, 3, 7, 11, -1},
	// i → 15−i
	"bitcomp": {15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	// i → 4-bit reversal of i
	"bitrev": {-1, 8, 4, 12, 2, 10, -1, 14, 1, -1, 5, 13, 3, 11, 7, -1},
	// i → rotate-left-1 of i's 4 bits
	"shuffle": {-1, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, -1},
	// (x,y) → ((x+1) mod 4, y): ⌈4/2⌉−1 = 1 hop around the row
	"tornado": {1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12},
}

func TestPermutationGolden4x4(t *testing.T) {
	net := grid(t, 4, 4)
	const rate = 0.25
	for name, want := range permutationDest {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Generate(net, rate)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := denseRows(m)
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				wantRate := 0.0
				if want[s] == d {
					wantRate = rate
				}
				if rows[s][d] != wantRate {
					t.Errorf("%s: rate[%d][%d] = %v, want %v", name, s, d, rows[s][d], wantRate)
				}
			}
		}
	}
}

func TestUniformGolden4x4(t *testing.T) {
	net := grid(t, 4, 4)
	p, _ := Lookup("uniform")
	m, err := p.Generate(net, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 / 15
	rows := denseRows(m)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			wantRate := want
			if s == d {
				wantRate = 0
			}
			if !units.ApproxEqual(rows[s][d], wantRate, 1e-12) {
				t.Fatalf("uniform rate[%d][%d] = %v, want %v", s, d, rows[s][d], wantRate)
			}
		}
	}
}

func TestNeighborGolden4x4(t *testing.T) {
	net := grid(t, 4, 4)
	p, _ := Lookup("neighbor")
	m, err := p.Generate(net, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	rows := denseRows(m)
	// Corner (0,0): two neighbors at rate/2.
	if got := rows[0][1]; !units.ApproxEqual(got, 0.06, 1e-12) {
		t.Errorf("corner east rate = %v, want 0.06", got)
	}
	if got := rows[0][4]; !units.ApproxEqual(got, 0.06, 1e-12) {
		t.Errorf("corner south rate = %v, want 0.06", got)
	}
	// Edge (1,0): three neighbors at rate/3.
	if got := rows[1][2]; !units.ApproxEqual(got, 0.04, 1e-12) {
		t.Errorf("edge rate = %v, want 0.04", got)
	}
	// Interior (1,1) = node 5: four neighbors at rate/4.
	for _, d := range []int{4, 6, 1, 9} {
		if got := rows[5][d]; !units.ApproxEqual(got, 0.03, 1e-12) {
			t.Errorf("interior rate[5][%d] = %v, want 0.03", d, got)
		}
	}
	// Nothing beyond distance 1.
	if rows[5][7] != 0 || rows[0][5] != 0 {
		t.Error("neighbor pattern must not reach past distance 1")
	}
}

func TestHotspotGolden4x4(t *testing.T) {
	net := grid(t, 4, 4)
	p, _ := Lookup("hotspot")
	const rate = 0.15
	m, err := p.Generate(net, rate)
	if err != nil {
		t.Fatal(err)
	}
	center := int(net.Node(2, 2)) // node 10
	uniform := rate * (1 - DefaultHotspotFraction) / 15
	hot := uniform + rate*DefaultHotspotFraction
	rows := denseRows(m)
	for s := 0; s < 16; s++ {
		if s == center {
			// The hot node itself spreads everything uniformly.
			for d := 0; d < 16; d++ {
				want := rate / 15
				if d == s {
					want = 0
				}
				if !units.ApproxEqual(rows[s][d], want, 1e-12) {
					t.Fatalf("hotspot rate[center][%d] = %v, want %v", d, rows[s][d], want)
				}
			}
			continue
		}
		for d := 0; d < 16; d++ {
			want := uniform
			switch {
			case d == s:
				want = 0
			case d == center:
				want = hot
			}
			if !units.ApproxEqual(rows[s][d], want, 1e-12) {
				t.Fatalf("hotspot rate[%d][%d] = %v, want %v", s, d, rows[s][d], want)
			}
		}
	}
}

// TestPatternProperties: on every grid a pattern supports, its matrix
// validates, peaks at the requested rate, and permutations stay
// injective with exactly one destination per non-fixed source.
func TestPatternProperties(t *testing.T) {
	grids := [][2]int{{4, 4}, {8, 8}, {4, 8}, {5, 5}, {16, 16}}
	const rate = 0.1
	for _, g := range grids {
		net := grid(t, g[0], g[1])
		for _, p := range Patterns() {
			m, err := p.Generate(net, rate)
			if err != nil {
				// Structural precondition (square / power-of-two) — fine,
				// as long as the supported grids are covered below.
				continue
			}
			if err := m.Validate(); err != nil {
				t.Errorf("%s on %dx%d: %v", p.Name(), g[0], g[1], err)
			}
			if got := m.MaxRowSum(); !units.ApproxEqual(got, rate, 1e-9) {
				t.Errorf("%s on %dx%d: max row sum %v, want %v", p.Name(), g[0], g[1], got, rate)
			}
			if _, isPerm := permutationDest[p.Name()]; !isPerm {
				continue
			}
			seen := map[int]bool{}
			row := make([]float64, m.N)
			for s := 0; s < m.N; s++ {
				row = m.Row(s, row)
				var dests []int
				for d, v := range row {
					if v != 0 {
						dests = append(dests, d)
					}
				}
				if len(dests) > 1 {
					t.Errorf("%s on %dx%d: source %d has %d destinations", p.Name(), g[0], g[1], s, len(dests))
				}
				if len(dests) == 1 {
					if row[dests[0]] != rate {
						t.Errorf("%s: split rate %v at source %d", p.Name(), row[dests[0]], s)
					}
					if seen[dests[0]] {
						t.Errorf("%s on %dx%d: destination %d reused", p.Name(), g[0], g[1], dests[0])
					}
					seen[dests[0]] = true
				}
			}
		}
	}
	// Every pattern must support the paper's 16×16 mesh and the 8×8
	// example scale.
	for _, g := range [][2]int{{8, 8}, {16, 16}} {
		net := grid(t, g[0], g[1])
		for _, p := range Patterns() {
			if _, err := p.Generate(net, rate); err != nil {
				t.Errorf("%s must support %dx%d: %v", p.Name(), g[0], g[1], err)
			}
		}
	}
}

func TestPatternPreconditions(t *testing.T) {
	rect := grid(t, 4, 2) // 8 nodes: power of two but not square
	if _, err := Lookup("transpose"); err != nil {
		t.Fatal(err)
	}
	tr, _ := Lookup("transpose")
	if _, err := tr.Generate(rect, 0.1); err == nil {
		t.Error("transpose must reject non-square grids")
	}
	odd := grid(t, 3, 3) // 9 nodes: square but not a power of two
	for _, name := range []string{"bitrev", "shuffle"} {
		p, _ := Lookup(name)
		if _, err := p.Generate(odd, 0.1); err == nil {
			t.Errorf("%s must reject non-power-of-two node counts", name)
		}
	}
	narrow := grid(t, 2, 4)
	tor, _ := Lookup("tornado")
	if _, err := tor.Generate(narrow, 0.1); err == nil {
		t.Error("tornado must reject width < 3 (degenerate shift)")
	}
}

func TestHotspotValidation(t *testing.T) {
	net := grid(t, 4, 4)
	for _, h := range []Hotspot{
		{Fraction: 0},
		{Fraction: -0.5},
		{Fraction: 1.5},
		{Fraction: 0.2, Nodes: []topology.NodeID{99}},
		{Fraction: 0.2, Nodes: []topology.NodeID{3, 3}},
	} {
		if _, err := h.Generate(net, 0.1); err == nil {
			t.Errorf("hotspot %+v must be rejected", h)
		}
	}
	// Multi-node hotspot: rows sum to rate, hot nodes drain the share.
	h := Hotspot{Fraction: 0.5, Nodes: []topology.NodeID{0, 15}}
	m, err := h.Generate(net, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.N; s++ {
		if !units.ApproxEqual(m.RowSum(s), 0.2, 1e-12) {
			t.Fatalf("row %d sums to %v, want 0.2", s, m.RowSum(s))
		}
	}
	// Source 0 is hot: its whole hot share lands on node 15.
	if got, want := m.Row(0, nil)[15], 0.2*0.5/1+0.2*0.5/15; !units.ApproxEqual(got, want, 1e-12) {
		t.Errorf("hot source rate[0][15] = %v, want %v", got, want)
	}
}

// TestParseErrorsListRegisteredNames: unknown-name and empty-list errors
// from ParsePatterns must name every registered pattern, so a CLI user can
// correct the flag from the message alone.
func TestParseErrorsListRegisteredNames(t *testing.T) {
	for _, spec := range []string{"bogus", "tornado,bogus", " , ", ""} {
		_, err := ParsePatterns(spec)
		if err == nil {
			t.Fatalf("ParsePatterns(%q) should fail", spec)
		}
		for _, name := range Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParsePatterns(%q) error omits registered pattern %q: %v", spec, name, err)
			}
		}
	}
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("Lookup error should list names: %v", err)
	}
}
