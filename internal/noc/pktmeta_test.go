package noc

import (
	"testing"
	"unsafe"
)

// TestPktMetaIsSlim: the per-packet runtime record adds at most one word
// to the Packet it carries. Hop totals live in one per-Sim counter, and
// nothing per packet tracks ejected flits, so a trace of millions of
// packets costs the kernel little beyond the packets themselves.
func TestPktMetaIsSlim(t *testing.T) {
	if meta, pkt := unsafe.Sizeof(pktMeta{}), unsafe.Sizeof(Packet{}); meta > pkt+unsafe.Sizeof(uintptr(0)) {
		t.Errorf("pktMeta is %d B over a %d B Packet", meta, pkt)
	}
}
