package noc

import (
	"testing"
	"time"
)

// TestNewScalesLinearly pins noc.New's construction cost to the network
// size: quadrupling both grid sides multiplies nodes and links by 16, so a
// linear New stays near 16× the smaller build. Any per-link scan inside the
// per-port loop (as the dateline queries once were) makes New quadratic in
// links — ~250× at this step — and trips the 64× bound. Each size takes
// the best of several builds so a GC pause or a descheduled slice cannot
// fail a linear build.
func TestNewScalesLinearly(t *testing.T) {
	best := func(w int) time.Duration {
		net, tab := smallMesh(t, w, w, 3)
		min := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := New(net, tab, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(16), best(64)
	t.Logf("New: 16x16 %v, 64x64 %v (%.1fx)", small, large, float64(large)/float64(small))
	if large > 64*small {
		t.Errorf("New at 64x64 took %v, more than 64x the 16x16 build's %v: construction is superlinear in links",
			large, small)
	}
}
