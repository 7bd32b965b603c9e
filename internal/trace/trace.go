// Package trace defines the message-trace format the NoC experiments
// consume, plays the role of the paper's MPICL→BookSim trace conversion, and
// packetizes messages the way the paper describes: traffic is split into
// 32-flit packets plus a small trailing packet, injected at the source at a
// rate respecting the 50 Gb/s channel bandwidth (one 64-bit flit per cycle).
//
// The text format is line oriented:
//
//	# comment
//	<cycle> <src> <dst> <bytes>
//
// with all fields base-10 integers. Events need not be sorted; consumers
// sort by cycle.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/noc"
	"repro/internal/topology"
)

// Event is one traced message: at Cycle, rank Src sends Bytes to rank Dst.
type Event struct {
	Cycle    int64
	Src, Dst int
	Bytes    int64
}

// Write emits events in the text format.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# cycle src dst bytes"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format, skipping blank lines and # comments.
func Read(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e Event
		if _, err := fmt.Sscanf(line, "%d %d %d %d", &e.Cycle, &e.Src, &e.Dst, &e.Bytes); err != nil {
			return nil, fmt.Errorf("trace: line %d: %q: %w", lineNo, line, err)
		}
		if e.Cycle < 0 || e.Src < 0 || e.Dst < 0 || e.Bytes <= 0 {
			return nil, fmt.Errorf("trace: line %d: invalid event %+v", lineNo, e)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// PacketizeConfig controls message → packet conversion.
type PacketizeConfig struct {
	// FlitBytes is the payload per flit (Table II: 64-bit flits = 8 B).
	FlitBytes int
	// LargeFlits is the long packet size (the paper: 32 flits).
	LargeFlits int
}

// DefaultPacketize returns the paper's packetization: 8-byte flits, 32-flit
// large packets.
func DefaultPacketize() PacketizeConfig {
	return PacketizeConfig{FlitBytes: 8, LargeFlits: 32}
}

// Validate checks the configuration.
func (c PacketizeConfig) Validate() error {
	if c.FlitBytes <= 0 || c.LargeFlits <= 0 {
		return fmt.Errorf("trace: invalid packetize config %+v", c)
	}
	return nil
}

// FlitCount returns the number of flits needed for a message of the given
// size: ceil(bytes / FlitBytes).
func (c PacketizeConfig) FlitCount(bytes int64) int64 {
	fb := int64(c.FlitBytes)
	return (bytes + fb - 1) / fb
}

// Packetize converts messages into simulator packets, splitting each message
// into LargeFlits-sized packets plus one trailing packet with the remaining
// flits (the paper: "all large packets were split up into smaller packets").
// Consecutive packets of one message are released one serialization delay
// apart so a source never exceeds one flit per cycle, mirroring the paper's
// bandwidth-respecting injection.
func Packetize(events []Event, nodes int, cfg PacketizeConfig) ([]noc.Packet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b Event) int { return cmp.Compare(a.Cycle, b.Cycle) })

	// Size the result in one counting pass; invalid events are rejected
	// below and count nothing here.
	count := 0
	for _, e := range events {
		if n := (cfg.FlitCount(e.Bytes) + int64(cfg.LargeFlits) - 1) / int64(cfg.LargeFlits); n > 0 {
			count += int(n)
		}
	}
	packets := slices.Grow([]noc.Packet(nil), max(count, 0))
	// nextFree[src] tracks when the source's injection channel frees up.
	nextFree := make([]int64, max(nodes, 0))
	for _, e := range sorted {
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
			return nil, fmt.Errorf("trace: event endpoints %d->%d out of %d nodes", e.Src, e.Dst, nodes)
		}
		if e.Bytes <= 0 {
			return nil, fmt.Errorf("trace: non-positive message size %d", e.Bytes)
		}
		flits := cfg.FlitCount(e.Bytes)
		release := max(e.Cycle, nextFree[e.Src])
		for flits > 0 {
			size := min(flits, int64(cfg.LargeFlits))
			packets = append(packets, noc.Packet{
				Src:       topology.NodeID(e.Src),
				Dst:       topology.NodeID(e.Dst),
				SizeFlits: int(size),
				Release:   release,
			})
			release += size // serialization at 1 flit/cycle
			flits -= size
		}
		nextFree[e.Src] = release
	}
	return packets, nil
}

// TotalFlits sums the flit counts of a packet batch.
func TotalFlits(packets []noc.Packet) int64 {
	var total int64
	for _, p := range packets {
		total += int64(p.SizeFlits)
	}
	return total
}

// TotalBytes sums message sizes of an event batch.
func TotalBytes(events []Event) int64 {
	var total int64
	for _, e := range events {
		total += e.Bytes
	}
	return total
}
