package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/noc"
)

// FuzzRead exercises the trace parser with arbitrary input: it must never
// panic, anything it accepts must round-trip through Write/Read, and
// Packetize must either reject it or emit every flit of every event (at
// least one packet each) — a message never silently vanishes.
func FuzzRead(f *testing.F) {
	f.Add("# comment\n0 1 2 64\n")
	f.Add("0 0 1 9223372036854775807\n")
	f.Add("3 2 0 274877906944\n7 0 2 274877906944\n")
	f.Add("5 0 0 8\n\n\n")
	f.Add("9999999999999 255 254 1048576\n")
	f.Add("-1 0 0 8\n")
	f.Add("a b c d\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		events, err := Read(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, e := range events {
			if e.Cycle < 0 || e.Src < 0 || e.Dst < 0 || e.Bytes <= 0 {
				t.Fatalf("accepted invalid event %+v", e)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, events); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round-trip lost events: %d -> %d", len(events), len(back))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("round-trip changed event %d: %+v -> %+v", i, events[i], back[i])
			}
		}
		checkPacketize(t, events)
	})
}

// fuzzMaxPackets caps the batches checkPacketize materializes, so a fuzzed
// size cannot ask for gigabytes of packets.
const fuzzMaxPackets = 1 << 16

// checkPacketize packetizes accepted events on enough nodes to hold their
// endpoints (at most 4096; the rest must be rejected). A batch past
// noc.MaxPackets must fail with ErrTooManyPackets before allocating; one
// small enough to materialize must either fail or carry exactly the
// expected packets and flits, at least one packet per event.
func checkPacketize(t *testing.T, events []Event) {
	cfg := DefaultPacketize()
	nodes := 1
	var wantPkts, wantFlits int64 // saturate at 1<<62: no overflow
	for _, e := range events {
		nodes = min(max(nodes, e.Src+1, e.Dst+1), 4096)
		flits := cfg.FlitCount(e.Bytes)
		if flits <= 0 {
			t.Fatalf("FlitCount(%d) = %d for an accepted event", e.Bytes, flits)
		}
		wantFlits = min(wantFlits+flits, 1<<62)
		wantPkts = min(wantPkts+(flits+int64(cfg.LargeFlits)-1)/int64(cfg.LargeFlits), 1<<62)
	}
	switch {
	case wantPkts > noc.MaxPackets:
		if _, err := Packetize(events, nodes, cfg); !errors.Is(err, ErrTooManyPackets) {
			t.Fatalf("%d packets past the kernel's index: Packetize error %v, want ErrTooManyPackets", wantPkts, err)
		}
	case wantPkts <= fuzzMaxPackets:
		pkts, err := Packetize(events, nodes, cfg)
		if err != nil {
			return
		}
		if int64(len(pkts)) != wantPkts || TotalFlits(pkts) != wantFlits {
			t.Fatalf("%d events packetized into %d packets / %d flits, want %d / %d",
				len(events), len(pkts), TotalFlits(pkts), wantPkts, wantFlits)
		}
	}
}
