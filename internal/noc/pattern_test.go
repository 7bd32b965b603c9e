package noc

import "testing"

func TestDetectSaturation(t *testing.T) {
	cases := []struct {
		name    string
		points  []LoadPoint
		rate    float64
		atFloor bool
		ok      bool
	}{
		{"empty", nil, 0, false, false},
		// A curve saturated from its lowest rate reports that rate WITH
		// the at-floor marker: the knee lies at or below the sweep floor,
		// so the rate is an upper bound, not a measured capacity.
		{"baseline saturated",
			[]LoadPoint{{InjectionRate: 0.1, Saturated: true}}, 0.1, true, true},
		{"flat curve never saturates", []LoadPoint{
			{InjectionRate: 0.1, AvgLatencyClks: 20},
			{InjectionRate: 0.2, AvgLatencyClks: 22},
			{InjectionRate: 0.3, AvgLatencyClks: 25},
		}, 0, false, false},
		// An interior knee is a measurement, not a floor artifact.
		{"latency knee at 3x zero-load", []LoadPoint{
			{InjectionRate: 0.1, AvgLatencyClks: 20},
			{InjectionRate: 0.2, AvgLatencyClks: 45},
			{InjectionRate: 0.3, AvgLatencyClks: 61}, // > 3×20
			{InjectionRate: 0.4, AvgLatencyClks: 300},
		}, 0.3, false, true},
		{"no-drain point saturates", []LoadPoint{
			{InjectionRate: 0.1, AvgLatencyClks: 20},
			{InjectionRate: 0.2, Saturated: true},
		}, 0.2, false, true},
		{"exactly 3x is not past the knee", []LoadPoint{
			{InjectionRate: 0.1, AvgLatencyClks: 20},
			{InjectionRate: 0.2, AvgLatencyClks: 60},
		}, 0, false, false},
		// A second point failing to drain right above a drained floor is
		// interior: the floor itself was measured fine.
		{"knee right above the floor is interior", []LoadPoint{
			{InjectionRate: 0.05, AvgLatencyClks: 20},
			{InjectionRate: 0.06, Saturated: true},
			{InjectionRate: 0.2, Saturated: true},
		}, 0.06, false, true},
	}
	for _, c := range cases {
		rate, atFloor, ok := DetectSaturation(c.points)
		if rate != c.rate || atFloor != c.atFloor || ok != c.ok {
			t.Errorf("%s: DetectSaturation = (%v, %v, %v), want (%v, %v, %v)",
				c.name, rate, atFloor, ok, c.rate, c.atFloor, c.ok)
		}
	}
}
