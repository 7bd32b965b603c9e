package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/topology"
)

func TestCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Src: 0, Dst: 255, Bytes: 2048},
		{Cycle: 17, Src: 12, Dst: 13, Bytes: 8},
		{Cycle: 1 << 40, Src: 255, Dst: 0, Bytes: 1 << 30},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0 1 2 64\n   \n# trailing\n5 2 1 8\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (Event{0, 1, 2, 64}) || got[1] != (Event{5, 2, 1, 8}) {
		t.Errorf("got %+v", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1 2 3\n",    // missing field
		"a b c d\n",  // not numbers
		"-1 0 1 8\n", // negative cycle
		"0 0 1 0\n",  // zero bytes
		"0 -2 1 8\n", // negative src
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should be rejected", in)
		}
	}
}

// TestPacketizeSplitsLikeThePaper: a 2 KiB message on 8-byte flits becomes
// eight 32-flit packets; a 300-byte message becomes one 32-flit packet plus
// a 6-flit trailer.
func TestPacketizeSplitsLikeThePaper(t *testing.T) {
	cfg := DefaultPacketize()
	pkts, err := Packetize([]Event{{Cycle: 0, Src: 1, Dst: 2, Bytes: 2048}}, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 8 {
		t.Fatalf("2048 B should be 8 packets, got %d", len(pkts))
	}
	for i, p := range pkts {
		if p.SizeFlits != 32 {
			t.Errorf("packet %d size %d, want 32", i, p.SizeFlits)
		}
		if p.Release != int64(i*32) {
			t.Errorf("packet %d release %d, want %d (bandwidth-respecting)", i, p.Release, i*32)
		}
	}
	pkts, err = Packetize([]Event{{Cycle: 10, Src: 0, Dst: 3, Bytes: 300}}, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 || pkts[0].SizeFlits != 32 || pkts[1].SizeFlits != 6 {
		t.Fatalf("300 B: got %+v", pkts)
	}
	if pkts[0].Release != 10 || pkts[1].Release != 42 {
		t.Errorf("releases %d, %d; want 10, 42", pkts[0].Release, pkts[1].Release)
	}
}

// TestPacketizeConservesFlits: total flits == ceil(bytes/8) per message.
func TestPacketizeConservesFlits(t *testing.T) {
	cfg := DefaultPacketize()
	f := func(rawBytes uint32) bool {
		b := int64(rawBytes%100000) + 1
		pkts, err := Packetize([]Event{{Cycle: 0, Src: 0, Dst: 1, Bytes: b}}, 4, cfg)
		if err != nil {
			return false
		}
		return TotalFlits(pkts) == cfg.FlitCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPacketizeSerializesPerSource: two back-to-back messages from one
// source never overlap their injection windows.
func TestPacketizeSerializesPerSource(t *testing.T) {
	cfg := DefaultPacketize()
	events := []Event{
		{Cycle: 0, Src: 0, Dst: 1, Bytes: 2048}, // 256 flits: busy until 256
		{Cycle: 5, Src: 0, Dst: 2, Bytes: 256},  // must wait
		{Cycle: 5, Src: 3, Dst: 2, Bytes: 256},  // other source: immediate
	}
	pkts, err := Packetize(events, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var src0Second, src3 noc.Packet
	for _, p := range pkts {
		if p.Src == 0 && p.Dst == 2 {
			src0Second = p
		}
		if p.Src == 3 {
			src3 = p
		}
	}
	if src0Second.Release != 256 {
		t.Errorf("second message from src 0 released at %d, want 256", src0Second.Release)
	}
	if src3.Release != 5 {
		t.Errorf("src 3 message released at %d, want 5", src3.Release)
	}
}

// packetizeOracle is the historical Packetize — reflection-based stable
// sort, map-backed per-source clock — kept as the reference the production
// path must reproduce packet for packet.
func packetizeOracle(events []Event, cfg PacketizeConfig) []noc.Packet {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
	nextFree := make(map[int]int64)
	var packets []noc.Packet
	for _, e := range sorted {
		flits := cfg.FlitCount(e.Bytes)
		release := e.Cycle
		if nf := nextFree[e.Src]; nf > release {
			release = nf
		}
		for flits > 0 {
			size := int64(cfg.LargeFlits)
			if flits < size {
				size = flits
			}
			packets = append(packets, noc.Packet{
				Src: topology.NodeID(e.Src), Dst: topology.NodeID(e.Dst),
				SizeFlits: int(size), Release: release,
			})
			release += size
			flits -= size
		}
		nextFree[e.Src] = release
	}
	return packets
}

// TestPacketizeStableOrderMatchesOracle: many messages share each cycle
// across and within sources, in shuffled order, so the result depends on
// the sort keeping equal-cycle events in input order (which message of a
// source claims its injection channel first). Packetize must match the
// historical implementation exactly, packet order included.
func TestPacketizeStableOrderMatchesOracle(t *testing.T) {
	const nodes = 16
	rng := rand.New(rand.NewSource(7))
	events := make([]Event, 4000)
	for i := range events {
		events[i] = Event{
			Cycle: int64(rng.Intn(12)) * 40,
			Src:   rng.Intn(nodes),
			Dst:   rng.Intn(nodes),
			Bytes: int64(1 + rng.Intn(600)),
		}
	}
	for _, cfg := range []PacketizeConfig{DefaultPacketize(), {FlitBytes: 4, LargeFlits: 5}} {
		got, err := Packetize(events, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := packetizeOracle(events, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Packetize diverges from the historical order (%d vs %d packets)",
				cfg, len(got), len(want))
		}
	}
	if got, err := Packetize(nil, nodes, DefaultPacketize()); err != nil || got != nil {
		t.Errorf("empty trace: got %v, %v; want nil, nil", got, err)
	}
}

func TestPacketizeValidation(t *testing.T) {
	cfg := DefaultPacketize()
	if _, err := Packetize([]Event{{Cycle: 0, Src: 99, Dst: 0, Bytes: 8}}, 16, cfg); err == nil {
		t.Error("out-of-range src must fail")
	}
	if _, err := Packetize([]Event{{Cycle: 0, Src: 0, Dst: 0, Bytes: 0}}, 16, cfg); err == nil {
		t.Error("zero bytes must fail")
	}
	bad := PacketizeConfig{FlitBytes: 0, LargeFlits: 32}
	if _, err := Packetize(nil, 16, bad); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestTotalBytes(t *testing.T) {
	if got := TotalBytes([]Event{{Bytes: 5}, {Bytes: 7}}); got != 12 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestFlitCount(t *testing.T) {
	cfg := DefaultPacketize()
	cases := map[int64]int64{1: 1, 8: 1, 9: 2, 64: 8, 2048: 256}
	for b, want := range cases {
		if got := cfg.FlitCount(b); got != want {
			t.Errorf("FlitCount(%d) = %d, want %d", b, got, want)
		}
	}
}

// TestPacketizeRejectsOversizedMessage: a message of MaxInt64 bytes once
// overflowed FlitCount to a negative count, and Packetize then emitted
// nothing and no error, so the traffic silently vanished. FlitCount must
// stay exact at that size, and the 2^55 packets it needs must be rejected
// by name, before anything is allocated.
func TestPacketizeRejectsOversizedMessage(t *testing.T) {
	events, err := Read(strings.NewReader("0 0 1 9223372036854775807\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPacketize()
	if got, want := cfg.FlitCount(events[0].Bytes), int64(1)<<60; got != want {
		t.Errorf("FlitCount(MaxInt64) = %d, want %d", got, want)
	}
	if pkts, err := Packetize(events, 2, cfg); !errors.Is(err, ErrTooManyPackets) {
		t.Errorf("Packetize: %d packets, error %v; want ErrTooManyPackets", len(pkts), err)
	}
	// The bound is on the batch: two messages that each fit but together
	// pass noc.MaxPackets are rejected too.
	half := int64(noc.MaxPackets/2+1) * int64(cfg.LargeFlits*cfg.FlitBytes)
	two := []Event{{Src: 0, Dst: 1, Bytes: half}, {Src: 1, Dst: 0, Bytes: half}}
	if _, err := Packetize(two, 2, cfg); !errors.Is(err, ErrTooManyPackets) {
		t.Errorf("two half-size messages: error %v, want ErrTooManyPackets", err)
	}
}
