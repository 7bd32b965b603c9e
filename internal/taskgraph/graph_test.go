package taskgraph

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func msg(src, dst, size int, off int64, deps ...int) Message {
	return Message{Src: topology.NodeID(src), Dst: topology.NodeID(dst), SizeFlits: size, ComputeClks: off, Deps: deps}
}

// TestValidate exercises the structural checks, cycle rejection most
// importantly: a cyclic graph deadlocks closed-loop injection, so it must
// die at validation, never reach a simulator.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		g       Graph
		wantErr string // empty = valid
	}{
		{"empty", Graph{NumNodes: 4}, ""},
		{"chain", Graph{NumNodes: 4, Messages: []Message{
			msg(0, 1, 1, 0), msg(1, 2, 1, 5, 0), msg(2, 3, 1, 5, 1),
		}}, ""},
		{"diamond", Graph{NumNodes: 4, Messages: []Message{
			msg(0, 1, 1, 0), msg(0, 2, 1, 0), msg(1, 3, 1, 0, 0), msg(2, 3, 1, 0, 1),
		}}, ""},
		{"bad size", Graph{NumNodes: 4, Messages: []Message{msg(0, 1, 0, 0)}}, "size"},
		{"bad endpoint", Graph{NumNodes: 4, Messages: []Message{msg(0, 9, 1, 0)}}, "out of range"},
		{"negative offset", Graph{NumNodes: 4, Messages: []Message{msg(0, 1, 1, -1)}}, "negative compute"},
		{"dep out of range", Graph{NumNodes: 4, Messages: []Message{msg(0, 1, 1, 0, 7)}}, "dep 7 out of range"},
		{"self dep", Graph{NumNodes: 4, Messages: []Message{msg(0, 1, 1, 0, 0)}}, "depends on itself"},
		{"two-cycle", Graph{NumNodes: 4, Messages: []Message{
			msg(0, 1, 1, 0, 1), msg(1, 2, 1, 0, 0),
		}}, "cycle"},
		{"long cycle behind a chain", Graph{NumNodes: 4, Messages: []Message{
			msg(0, 1, 1, 0),
			msg(1, 2, 1, 0, 0, 4), // depends on the cycle's tail
			msg(2, 3, 1, 0, 3),
			msg(3, 0, 1, 0, 4),
			msg(0, 2, 1, 0, 2),
		}}, "cycle"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestTopoOrderDeterministic: the Kahn order must respect every edge and
// always pick the smallest ready index, making it reproducible.
func TestTopoOrderDeterministic(t *testing.T) {
	g := Graph{NumNodes: 4, Messages: []Message{
		msg(0, 1, 1, 0, 3),
		msg(1, 2, 1, 0),
		msg(2, 3, 1, 0, 1, 3),
		msg(3, 0, 1, 0),
	}}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("TopoOrder() = %v, want %v", order, want)
		}
	}
}

// TestCriticalPath: the DAG fold must follow the longest
// dependency chain, offsets and latencies included.
func TestCriticalPath(t *testing.T) {
	g := Graph{NumNodes: 4, Messages: []Message{
		msg(0, 1, 1, 2),       // finish 2+10 = 12
		msg(1, 2, 1, 3, 0),    // finish 12+3+10 = 25
		msg(0, 3, 1, 0),       // finish 10
		msg(2, 3, 1, 4, 1, 2), // finish 25+4+10 = 39
	}}
	ms, err := g.CriticalPathClks(func(Message) int64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	if ms != 39 {
		t.Errorf("CriticalPathClks = %d, want 39", ms)
	}
	order, err := g.ValidOrder()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CriticalPathInOrder(order, func(Message) int64 { return 10 }); got != ms {
		t.Errorf("CriticalPathInOrder over ValidOrder = %d, want %d", got, ms)
	}
}
