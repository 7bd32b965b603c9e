package topology

import (
	"math"
	"testing"

	"repro/internal/tech"
)

// FuzzConfigValidate fuzzes the kind, grid extents, express geometry,
// concentration, spacing and capacity, and asserts what every caller of
// Validate relies on:
//
//   - an accepted config's node count Width×Height does not wrap around;
//   - Build succeeds, without panicking, on every accepted config of at
//     most 256 nodes, and the network has exactly Width×Height nodes.
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint8(0), 16, 16, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(0), 8, 8, 3, 0, true, 1e-3, 50e9)
	f.Add(uint8(0), 2, 1, 1, 0, false, 1e-3, 50e9)
	f.Add(uint8(1), 4, 4, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(2), 4, 4, 2, 4, false, 1e-3, 50e9)
	f.Add(uint8(3), 7, 2, 0, 0, false, 1e-3, 50e9)
	// 6148914691236517206×3 wraps to 2 nodes.
	f.Add(uint8(0), 6148914691236517206, 3, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(0), 4000000000, 4000000000, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(0), math.MaxInt, math.MaxInt, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(0), -3, -5, 0, 0, false, 1e-3, 50e9)
	f.Add(uint8(0), 4, 4, -1, -1, false, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, kindRaw uint8, w, h, hops, conc int, bothDims bool, spacing, capacity float64) {
		kinds := Kinds()
		c := DefaultConfig()
		c.Kind = kinds[int(kindRaw)%len(kinds)]
		c.Width, c.Height = w, h
		c.ExpressHops, c.ExpressBothDims = hops, bothDims
		c.ExpressTech = tech.HyPPI
		c.Concentration = conc
		c.CoreSpacingM, c.CapacityBps = spacing, capacity
		if err := c.Validate(); err != nil {
			return
		}
		if w < 1 || h < 1 || w > math.MaxInt/h {
			t.Fatalf("accepted %v grid %dx%d whose node count wraps", c.Kind, w, h)
		}
		if w*h > 256 {
			return
		}
		net, err := Build(c)
		if err != nil {
			t.Fatalf("Build rejects %+v, which Validate accepts: %v", c, err)
		}
		if got := net.NumNodes(); got != w*h {
			t.Fatalf("%v %dx%d built %d nodes", c.Kind, w, h, got)
		}
	})
}
