package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Op identifies the operation (job, point, graph or query) whose
	// spans share it; Round is the round the span belongs to.
	Op    int    `json:"op"`
	Round int    `json:"round"`
	Phase string `json:"phase"`
}

// tracer records spans and counts in memory; they are written out when
// the benchmark ends. It is used from one goroutine.
type tracer struct {
	phase  string
	epoch  time.Time
	spans  []span
	open   []int
	op     int
	round  int
	counts map[string]float64
}

func newTracer(phase string) *tracer {
	return &tracer{phase: phase, epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.epoch)), Parent: parent,
		Op: t.op, Round: t.round, Phase: t.phase,
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

// span runs f inside a span and returns the span's duration.
func (t *tracer) span(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	err := f()
	return t.end(id), err
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[i])
	}
	return self
}

// writeSpans writes the spans of the tracers as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
