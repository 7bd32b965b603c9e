// Package noc is a cycle-accurate network-on-chip simulator equivalent in
// role to BookSim 2.0 (Jiang et al., ISPASS 2013), which the paper uses in
// trace mode for its NAS-benchmark latency results.
//
// The microarchitecture follows the paper's Table II:
//
//   - input-queued virtual-channel routers, 4 VCs × 8-flit buffers per port
//   - a 3-stage router pipeline (route computation / VC allocation, switch
//     allocation, switch traversal)
//   - credit-based flow control between routers
//   - separable round-robin allocators (input-first for switch allocation),
//     each run in one pass over a router's ports: the switch grant keeps,
//     per output, the requesting input port nearest past the output's
//     round-robin pointer, so it costs O(ports) rather than O(outputs ×
//     inputs); route computation and the VC-allocation requester gather
//     share one scan of the VCs that hold flits but no output VC
//   - table-based oblivious routing (the routing package's tables)
//   - channel latency of 1 clock for electronic links and 2 clocks for
//     optical links (the extra cycle is the receiver's O-E conversion)
//   - one local injection and one ejection port per router; ejection is an
//     ideal sink
//
// The simulator is synchronous and strictly deterministic: all state is
// iterated in index order and every arbiter is round-robin, so identical
// inputs give bit-identical results.
//
// # Active-set kernel
//
// The per-cycle cost scales with live flits, not network size. Four event
// structures replace full scans:
//
//   - an active-router worklist (a node-indexed bitmap, iterated in index
//     order so arbitration order matches the historical full scan) feeds
//     the allocation and traversal stages only the routers with buffered
//     flits;
//   - a cycle-bucketed arrival calendar replaces per-link pipe queues:
//     a flit sent on a channel is filed under its arrival cycle, so
//     delivery touches exactly the flits arriving now instead of scanning
//     every channel. Channel latencies are constant per link and at most
//     one flit enters a channel per cycle, so per-channel FIFO order is
//     preserved by construction;
//   - a release min-heap parks traffic sources between packets, so the
//     injection stage visits only sources with a ready packet;
//   - per-input-port VC bitmasks — occupied VCs, and eligible VCs (occupied,
//     routed and owning an output VC) — kept current at every buffer push
//     and pop, route, VC grant and tail release. The switch allocator's
//     input stage rotates the eligible mask by the port's round-robin
//     pointer and takes trailing zeros, dereferencing only eligible VCs
//     for the pipeline-ready and credit checks; route computation visits
//     only occupied VCs without an output VC. Idle VCs are never probed.
//
// Router state lives in contiguous per-Sim arenas (struct-of-arrays):
// building a Sim performs a fixed, small number of allocations whatever
// the network size and work linear in nodes plus links, and Reset rewinds
// everything for reuse without reallocating (see Reset and SimPool).
package noc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
)

// Config sizes the router microarchitecture.
type Config struct {
	// VCs is virtual channels per port (Table II: 4).
	VCs int
	// BufDepthFlits is the flit capacity of each VC buffer (Table II: 8).
	BufDepthFlits int
	// PipelineClks is the router pipeline depth (Table II: 3).
	PipelineClks int
	// MaxCycles aborts a run that fails to drain (0 = default cap).
	MaxCycles int64
	// DisableIdleSkip forces the kernel to step through provably idle
	// cycles one at a time instead of leaping the clock to the next
	// event. Results are bit-identical either way (the skip-equivalence
	// tests pin that); the stepping kernel exists as their reference.
	DisableIdleSkip bool
}

// DefaultConfig returns the Table II router configuration.
func DefaultConfig() Config {
	return Config{VCs: 4, BufDepthFlits: 8, PipelineClks: 3}
}

// MaxVCs bounds Config.VCs: each input port tracks its VCs in 64-bit
// masks (VC indices are int8, whose bound is looser).
const MaxVCs = 64

// MaxBufDepthFlits bounds Config.BufDepthFlits: downstream credits are
// int16 counters.
const MaxBufDepthFlits = math.MaxInt16

// MaxPackets bounds the packets one run can hold: the kernel indexes
// packets with int32.
const MaxPackets = math.MaxInt32

var (
	// ErrVCsOutOfRange marks a Config with more VCs than MaxVCs.
	ErrVCsOutOfRange = errors.New("noc: VCs out of range")
	// ErrBufDepthOutOfRange marks a Config whose BufDepthFlits exceeds
	// MaxBufDepthFlits.
	ErrBufDepthOutOfRange = errors.New("noc: buffer depth out of range")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.VCs <= 0 || c.BufDepthFlits <= 0 || c.PipelineClks <= 0 {
		return fmt.Errorf("noc: non-positive config %+v", c)
	}
	if c.VCs > MaxVCs {
		return fmt.Errorf("%w: %d > %d", ErrVCsOutOfRange, c.VCs, MaxVCs)
	}
	if c.BufDepthFlits > MaxBufDepthFlits {
		return fmt.Errorf("%w: %d > %d", ErrBufDepthOutOfRange, c.BufDepthFlits, MaxBufDepthFlits)
	}
	return nil
}

// Packet is one network packet to inject.
type Packet struct {
	// Src and Dst are the endpoint nodes.
	Src, Dst topology.NodeID
	// SizeFlits is the packet length (the paper uses 1 and 32).
	SizeFlits int
	// Release is the cycle at which the packet becomes ready at the
	// source queue.
	Release int64
}

// Stats summarizes a run. The slices are owned by the returned value: a
// Sim that is Reset for reuse allocates fresh counters, so Stats escaping
// a run stay valid.
type Stats struct {
	// Cycles is the cycle count at drain.
	Cycles int64
	// PacketsInjected and PacketsEjected count whole packets.
	PacketsInjected, PacketsEjected int64
	// PacketsDropped counts packets whose per-hop retransmission budget
	// (FaultProfile.RetryLimit) was exhausted: the corrupt payload was
	// forwarded and discarded at the destination instead of redelivered.
	// Always zero when no fault profile is armed. Dropped packets are not
	// in PacketsEjected and contribute no latency samples.
	PacketsDropped int64
	// FlitsInjected and FlitsEjected count flits.
	FlitsInjected, FlitsEjected int64
	// AvgPacketLatencyClks averages (tail ejection − release) over
	// packets, BookSim's packet latency. For closed-loop packets the
	// release is the actual post-dependency release, so this stays a pure
	// network latency with compute time excluded.
	AvgPacketLatencyClks float64
	// MaxPacketLatencyClks is the worst packet latency.
	MaxPacketLatencyClks int64
	// MakespanClks is the cycle at which the last tail flit ejected — the
	// end-to-end completion time of the workload (0 for an empty run).
	// Under closed-loop injection (InjectClosedLoop) this is the task
	// graph's makespan; dropped packets count, their tails eject too.
	MakespanClks int64
	// AvgHopCount averages channel traversals per packet.
	AvgHopCount float64
	// P50, P95 and P99 are packet latency percentiles in clocks.
	P50PacketLatencyClks, P95PacketLatencyClks, P99PacketLatencyClks float64
	// LinkFlits[l] counts flit traversals of channel l — the input to
	// dynamic energy accounting.
	LinkFlits []int64
	// RouterFlits[r] counts flits traversing each router (buffer write +
	// crossbar pass), including injection and ejection.
	RouterFlits []int64
	// Activity is the per-class activity census the energy subsystem
	// folds technology coefficients over.
	Activity Activity
}

// Activity counts the microarchitectural events of a run by class — the
// measured quantities the energy package prices (the paper estimates them
// from injection rates; the simulator counts them). All counters are plain
// scalars or fixed arrays updated inline on the hot path, live in the Stats
// value, and are rewound by Reset exactly like the flit counters, so pooled
// reuse stays bit-identical.
type Activity struct {
	// BufferWrites and BufferReads count input-VC SRAM accesses: one
	// write when a flit enters a buffer (injection or link delivery), one
	// read when the switch allocator sends it. At drain of a fault-free
	// run the two are equal and both equal the sum of Stats.RouterFlits;
	// under an armed FaultProfile, reads exceed writes by the
	// retransmission total (see RetransmittedFlitHops).
	BufferWrites, BufferReads int64
	// CrossbarTraversals counts switch passes, including the ejection
	// pass; equals BufferReads at drain (every read feeds the crossbar).
	CrossbarTraversals int64
	// LinkFlitHops[t] counts channel traversals per link technology
	// class (indexed by tech.Technology); the per-class split of the
	// Stats.LinkFlits total.
	LinkFlitHops [tech.NumTechnologies]int64
	// ExpressFlitHops counts traversals riding express channels.
	ExpressFlitHops int64
	// RetransmittedFlitHops[t] counts failed channel traversals — flits
	// corrupted in flight, NACKed by the receiver and re-sent upstream —
	// per link technology class. Each failed attempt is also counted in
	// LinkFlitHops, Stats.LinkFlits, BufferReads and CrossbarTraversals
	// (the hardware toggled; the energy was spent), so retransmission
	// overhead is priced exactly like useful traffic. With retransmission
	// active, BufferReads exceeds BufferWrites by exactly this total at
	// drain (each retry re-reads without re-writing).
	RetransmittedFlitHops [tech.NumTechnologies]int64
	// SourceFlits[n] counts flits injected by node n, the measured
	// per-source offered load (max over nodes ÷ cycles is the measured
	// counterpart of the traffic matrix's MaxRowSum).
	SourceFlits []int64
}

// TotalFlitHops sums the per-class channel traversals.
func (a *Activity) TotalFlitHops() int64 {
	var sum int64
	for _, c := range a.LinkFlitHops {
		sum += c
	}
	return sum
}

// TotalRetransmits sums failed (retransmitted) channel traversals across
// technology classes.
func (a *Activity) TotalRetransmits() int64 {
	var sum int64
	for _, c := range a.RetransmittedFlitHops {
		sum += c
	}
	return sum
}

// OpticalFlitHops sums the traversals of light-carrying channels. Each is
// exactly one E-O conversion at the sending router and one O-E conversion
// at the receiver — links are opaque electronic-terminated hops in the
// paper's NoC — so this single counter is also the count of modulator
// drives (E/O) and of detector receptions (O/E).
func (a *Activity) OpticalFlitHops() int64 {
	var sum int64
	for t, c := range a.LinkFlitHops {
		if tech.Technology(t).IsOptical() {
			sum += c
		}
	}
	return sum
}

// MaxSourceRate returns the measured peak per-node injection rate in
// flits/cycle over a run of the given length (0 for an empty run).
func (a *Activity) MaxSourceRate(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	var peak int64
	for _, c := range a.SourceFlits {
		if c > peak {
			peak = c
		}
	}
	return float64(peak) / float64(cycles)
}

// Observer is the kernel's telemetry tap (see internal/telemetry): a
// passive listener on the flit events the hot path already sequences.
// Every callback fires at a deterministic point of the cycle loop, in the
// kernel's own index order, so an observer sees a bit-reproducible event
// stream for identical inputs. Observers must not mutate the simulator or
// retain references into it — the disabled path (no observer attached) is
// a single nil check per event site and must stay bit-identical to an
// observed run (TestObserverDoesNotPerturbStats pins that).
type Observer interface {
	// PacketInjected fires once per packet, when its head flit enters the
	// source's injection VC at cycle. It always precedes every other
	// event of that packet index.
	PacketInjected(pkt int32, p Packet, cycle int64)
	// FlitInjected fires for every flit (head included, right after its
	// PacketInjected) entering node's injection VC at cycle.
	FlitInjected(pkt int32, node int32, cycle int64)
	// FlitDelivered fires when a flit comes off channel link into the
	// input buffer of router dst at cycle.
	FlitDelivered(pkt int32, link int32, dst int32, head bool, cycle int64)
	// FlitSent fires when a flit wins switch allocation at router and
	// leaves through link (-1 = the ejection port; the flit retires at
	// cycle+1, the kernel's MakespanClks convention). dropped is set only
	// on the tail ejection of a packet that exhausted its retransmission
	// budget. Corrupted traversals under an armed FaultProfile do not
	// fire (the flit stays buffered); only the successful attempt does.
	FlitSent(pkt int32, router int32, link int32, head, tail, dropped bool, cycle int64)
}

// flit is the unit of flow control.
type flit struct {
	pkt  int32 // index into Sim.pkts
	seq  int32 // flit index within packet
	vc   int8  // VC assigned for the current hop
	cls  int8  // dateline VC class (0 before wrap, 1 after)
	head bool
	tail bool
}

// bufEntry is a buffered flit plus the cycle it becomes eligible for switch
// allocation (modelling the first two pipeline stages). tries counts failed
// traversal attempts at this hop under an armed FaultProfile; it resets
// when the flit crosses to the next router. Fields run largest first so an
// entry packs into 24 bytes.
type bufEntry struct {
	ready int64
	f     flit
	tries int32
}

// ring is a fixed-capacity circular FIFO. The simulator's queues are all
// bounded (VC buffers by BufDepthFlits, channels by the credit loop), so
// after New the hot path performs no queue allocations; grow exists only as
// a defensive fallback should a bound ever be exceeded. VC rings share one
// arena-backed buffer per Sim; a ring that grows migrates onto a private
// buffer of its own, leaving the arena slot unused.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) len() int  { return r.n }
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

func (r *ring[T]) grow() {
	buf := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf = buf
	r.head = 0
}

// reset rewinds the ring to empty. A grown (non-arena) buffer is kept: ring
// capacity never affects simulation results, only the len checks against
// BufDepthFlits do.
func (r *ring[T]) reset() { r.head, r.n = 0, 0 }

// vcState is one input virtual channel.
type vcState struct {
	q ring[bufEntry]
	// routed marks that the head packet has a computed output.
	routed bool
	// outPort is the routed output port index (0 = ejection).
	outPort int16
	// outVC is the allocated downstream VC (-1 = none yet).
	outVC int8
	// outCls is the VC class required downstream: the head flit's class,
	// incremented when the routed channel is a dateline (row wrap).
	outCls int8
	// writer is the packet currently being written into this VC at the
	// injection port (-1 = none); prevents interleaving on write.
	writer int32
}

// outState is one output port.
type outState struct {
	// link is the channel this output drives (-1 for ejection).
	link topology.LinkID
	// credits[v] is remaining buffer space at the downstream VC v
	// (arena-backed; unused for the ejection port).
	credits []int16
	// owner[v] is the input VC (packed port*VCs+vc) owning output VC v,
	// -1 when free (arena-backed).
	owner []int32
	// saPtr is the output-side round-robin pointer over input ports,
	// kept in [0, nin).
	saPtr int
	// vaPtr is the VC-allocation round-robin pointer over requesters.
	vaPtr int
	// classed marks channels under dateline VC partitioning: only the
	// X channels of wrapped rows can form ring cycles, so only they are
	// partitioned; Y channels and ejection stay unrestricted.
	classed bool
}

// inPort is one input port's allocator state. Bit v of each mask is VC v
// of the port (Config.Validate bounds VCs by MaxVCs).
type inPort struct {
	// occ marks the VCs holding buffered flits.
	occ uint64
	// elig marks the occupied VCs that are routed and own an output VC —
	// the switch allocator's candidates, pending only the pipeline-ready
	// and credit checks. Kept current at every push, pop, route, VC grant
	// and tail release, so neither allocator probes an idle VC.
	elig uint64
	// saPtr is the round-robin pointer over the port's VCs, in [0, VCs].
	saPtr int32
	// link is the channel feeding the port (unused for port 0).
	link topology.LinkID
	// isX marks ports fed by horizontal channels; used to reset the
	// dateline class at the X→Y dimension transition so one class bit
	// suffices for both dimensions' rings.
	isX bool
}

// router is one node's switch. All slices are views into per-Sim arenas.
type router struct {
	id topology.NodeID
	// in[p*VCs+v]: input VC v of port p.
	in []vcState
	// ports[p]: input port p; port 0 is injection.
	ports []inPort
	// out[p]: output port p; port 0 is ejection.
	out []outState
	// outIsY[p] marks output ports driving vertical channels.
	outIsY []bool
}

// arrival is one in-flight flit filed in the arrival calendar.
type arrival struct {
	f   flit
	lid int32
}

// srcRel parks a dormant traffic source until its next packet's release.
type srcRel struct {
	rel  int64
	node int32
}

// pktMeta is per-packet runtime accounting.
type pktMeta struct {
	Packet
	// dropped marks a packet that exhausted its retransmission budget;
	// its flits still flow to the destination (keeping flow control and
	// VC ownership intact) but are discarded there.
	dropped bool
}

// Sim is one simulation instance. It is not safe for concurrent use;
// parallelize across Sim instances (see SimPool).
type Sim struct {
	net *topology.Network
	tab *routing.Table
	cfg Config

	routers []router
	// inPortOf[l] is the input port index of link l at its Dst router;
	// outPortOf[l] is the output port index at its Src router. linkDst,
	// linkSrc and linkLat cache the per-link fields the hot path needs so
	// delivery and credit return never chase into net.Links.
	inPortOf  []int16
	outPortOf []int16
	linkDst   []int32
	linkSrc   []int32
	linkLat   []int32
	// linkClass[l] is the link's technology (for the per-class activity
	// census) and linkExpr[l] marks express channels; both cached flat so
	// the send path never chases into net.Links.
	linkClass []int8
	linkExpr  []bool

	// calendar[c % len] lists the flits arriving at cycle c. Sized to
	// exceed the largest possible send-to-arrival delay (1 cycle switch
	// traversal + max channel latency), so buckets never alias.
	calendar [][]arrival

	pkts    []pktMeta
	sources [][]int32 // per node: packet indices in release order
	srcPos  []int     // per node: next packet to inject
	srcFlit []int32   // per node: next flit seq of current packet
	srcVC   []int8    // per node: VC carrying the current packet (-1)

	// relHeap is a min-heap (release, node) of dormant sources; srcMask
	// marks sources with a ready packet, iterated in index order. liveSrc
	// counts set bits.
	relHeap []srcRel
	srcMask []uint64
	liveSrc int

	// Closed-loop dependency state (see InjectClosedLoop; all empty for
	// open-loop runs). succOff/succList are the CSR successor lists of the
	// dependency DAG; pending[i] counts packet i's unejected predecessors.
	closedLoop bool
	succOff    []int32
	succList   []int32
	pending    []int32

	now       int64
	ran       bool
	stats     Stats
	latSum    float64
	latencies stats.Sample
	// headHops counts head-flit channel traversals: the run's total hop
	// count over all packets.
	headHops int64
	credits  []creditEvent

	// Activity tracking lets idle stretches be skipped and idle routers
	// bypassed: buffered counts flits in input buffers per router,
	// inflight counts flits on channels. activeMask mirrors buffered>0
	// as a bitmap — the active-router worklist.
	buffered   []int32
	totalBuf   int64
	inflight   int64
	activeMask []uint64
	// cand and win are the switch allocator's per-cycle scratch: cand[p]
	// is input port p's candidate VC and win[op] the input port granted
	// output op (-1 between cycles), sized for the widest router. reqs is
	// the VC allocator's per-output-port requester scratch. All are sized
	// at construction and reused across cycles — the hot path never
	// allocates.
	cand []int32
	win  []int32
	reqs [][]int32

	// cycleHook, when set, runs at the end of every simulated cycle. Only
	// tests set it (the kernel invariant check); the common path pays one
	// nil check per cycle.
	cycleHook func()

	// fault is the armed BER/retransmission profile (nil = faultless; see
	// SetFaultProfile). routeErr records the first unroutable packet seen
	// mid-run — possible only on degraded routing tables — and aborts Run
	// with a named error instead of panicking on the missing port.
	fault    *faultState
	routeErr error

	// obs is the attached telemetry tap (nil = disabled; see SetObserver).
	// Each event site guards its callback with one nil check, so the
	// telemetry-off hot path is unchanged.
	obs Observer

	// classed enables dateline VC-class partitioning: required for the
	// torus-like hops = Width−1 topology, where packets crossing a row
	// wrap switch to the upper half of the VC pool to break ring cycles.
	classed bool
	// class0VCs is the size of the class-0 partition.
	class0VCs int8
}

type creditEvent struct {
	r    int32
	port int16
	vc   int8
}

// New builds a simulator for a network and routing table. Construction
// performs a fixed, small number of allocations: router state lives in
// shared arenas, not per-router slices.
func New(net *topology.Network, tab *routing.Table, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tab.Net() != net {
		return nil, fmt.Errorf("noc: routing table built for a different network")
	}
	// Each HasDateline scan walks every link: query once, never per port.
	ringX, ringY := net.HasDatelineX(), net.HasDatelineY()
	if (ringX || ringY) && cfg.VCs < 2 {
		return nil, fmt.Errorf("noc: torus-like topology needs ≥2 VCs for dateline classes, have %d", cfg.VCs)
	}
	n := net.NumNodes()
	nl := len(net.Links)
	vcs := cfg.VCs
	depth := cfg.BufDepthFlits
	s := &Sim{
		net:        net,
		tab:        tab,
		cfg:        cfg,
		routers:    make([]router, n),
		inPortOf:   make([]int16, nl),
		outPortOf:  make([]int16, nl),
		linkDst:    make([]int32, nl),
		linkSrc:    make([]int32, nl),
		linkLat:    make([]int32, nl),
		linkClass:  make([]int8, nl),
		linkExpr:   make([]bool, nl),
		sources:    make([][]int32, n),
		srcPos:     make([]int, n),
		srcFlit:    make([]int32, n),
		srcVC:      make([]int8, n),
		buffered:   make([]int32, n),
		activeMask: make([]uint64, (n+63)/64),
		srcMask:    make([]uint64, (n+63)/64),
	}
	s.stats.LinkFlits = make([]int64, nl)
	s.stats.RouterFlits = make([]int64, n)
	s.stats.Activity.SourceFlits = make([]int64, n)
	s.classed = ringX || ringY
	// Class 1 (post-wrap) packets are the rare case: give them the top
	// VC only and keep the rest for class 0, minimizing the partition
	// penalty on non-wrapping traffic.
	s.class0VCs = int8(vcs - 1)
	for i := range s.srcVC {
		s.srcVC[i] = -1
	}

	// Arena sizing: total input/output ports across the network, plus the
	// widest router for the allocator scratch.
	totalIn, totalOut, maxIn, maxOut := 0, 0, 0, 0
	for id := 0; id < n; id++ {
		node := topology.NodeID(id)
		nin := 1 + len(net.InLinks(node))
		nout := 1 + len(net.OutLinks(node))
		totalIn += nin
		totalOut += nout
		if nin > maxIn {
			maxIn = nin
		}
		if nout > maxOut {
			maxOut = nout
		}
	}
	var (
		vcArena   = make([]vcState, totalIn*vcs)
		bufArena  = make([]bufEntry, totalIn*vcs*depth)
		portArena = make([]inPort, totalIn)
		outArena  = make([]outState, totalOut)
		credArena = make([]int16, totalOut*vcs)
		ownArena  = make([]int32, totalOut*vcs)
		oyArena   = make([]bool, totalOut)
	)
	scratch := make([]int32, maxIn+maxOut)
	s.cand, s.win = scratch[:maxIn:maxIn], scratch[maxIn:]
	for op := range s.win {
		s.win[op] = -1
	}
	s.reqs = make([][]int32, maxOut)
	reqArena := make([]int32, maxOut*maxIn*vcs)
	for op := range s.reqs {
		s.reqs[op] = reqArena[op*maxIn*vcs : op*maxIn*vcs : (op+1)*maxIn*vcs]
	}

	inOff, outOff := 0, 0 // port offsets into the arenas
	for id := 0; id < n; id++ {
		node := topology.NodeID(id)
		inLinks := net.InLinks(node)
		outLinks := net.OutLinks(node)
		nin := 1 + len(inLinks)
		nout := 1 + len(outLinks)
		r := router{
			id:     node,
			in:     vcArena[inOff*vcs : (inOff+nin)*vcs : (inOff+nin)*vcs],
			ports:  portArena[inOff : inOff+nin : inOff+nin],
			out:    outArena[outOff : outOff+nout : outOff+nout],
			outIsY: oyArena[outOff : outOff+nout : outOff+nout],
		}
		for i := range r.in {
			base := (inOff*vcs + i) * depth
			r.in[i] = vcState{
				q:      ring[bufEntry]{buf: bufArena[base : base+depth : base+depth]},
				outVC:  -1,
				writer: -1,
			}
		}
		// Output 0: ejection (ideal sink, no credit bound); owner
		// bookkeeping is still needed for VC allocation.
		ej := ownArena[outOff*vcs : (outOff+1)*vcs : (outOff+1)*vcs]
		for v := range ej {
			ej[v] = -1
		}
		r.out[0] = outState{link: -1, owner: ej}
		for i, lid := range outLinks {
			op := 1 + i
			cbase := (outOff + op) * vcs
			credits := credArena[cbase : cbase+vcs : cbase+vcs]
			owner := ownArena[cbase : cbase+vcs : cbase+vcs]
			for v := 0; v < vcs; v++ {
				credits[v] = int16(depth)
				owner[v] = -1
			}
			l := net.Links[lid]
			r.out[op] = outState{
				link:    lid,
				credits: credits,
				owner:   owner,
				classed: (ringX && l.DX(net) != 0) || (ringY && l.DY(net) != 0),
			}
			r.outIsY[op] = l.DY(net) != 0
			s.outPortOf[lid] = int16(op)
		}
		for i, lid := range inLinks {
			s.inPortOf[lid] = int16(1 + i)
			r.ports[1+i].link = lid
			r.ports[1+i].isX = net.Links[lid].DX(net) != 0
		}
		s.routers[id] = r
		inOff += nin
		outOff += nout
	}

	maxLat := 1
	for i, l := range net.Links {
		s.linkDst[i] = int32(l.Dst)
		s.linkSrc[i] = int32(l.Src)
		s.linkLat[i] = int32(l.LatencyClks)
		s.linkClass[i] = int8(l.Tech)
		s.linkExpr[i] = l.Express
		if l.LatencyClks > maxLat {
			maxLat = l.LatencyClks
		}
	}
	// The send-to-arrival delay is 1 (switch traversal) + channel latency,
	// so maxLat+2 buckets guarantee a bucket is drained before any send
	// can refile into it.
	s.calendar = make([][]arrival, maxLat+2)
	return s, nil
}

// Reset rewinds the simulator to its freshly-constructed state, reusing
// every buffer: queued packets, statistics and all router state are
// cleared without reallocating the arenas. The flit counters of the
// previous run's Stats are handed off to that Stats value (fresh slices
// are allocated), so results captured before Reset stay valid. A Reset
// Sim behaves bit-identically to a new Sim on the same inputs.
func (s *Sim) Reset() {
	for rid := range s.routers {
		r := &s.routers[rid]
		for i := range r.in {
			vc := &r.in[i]
			vc.q.reset()
			vc.routed = false
			vc.outPort = 0
			vc.outVC = -1
			vc.outCls = 0
			vc.writer = -1
		}
		for op := range r.out {
			out := &r.out[op]
			for v := range out.owner {
				out.owner[v] = -1
			}
			for v := range out.credits {
				out.credits[v] = int16(s.cfg.BufDepthFlits)
			}
			out.saPtr = 0
			out.vaPtr = 0
		}
		for p := range r.ports {
			ip := &r.ports[p]
			ip.occ, ip.elig, ip.saPtr = 0, 0, 0
		}
	}
	for i := range s.calendar {
		s.calendar[i] = s.calendar[i][:0]
	}
	s.pkts = s.pkts[:0]
	for i := range s.sources {
		s.sources[i] = s.sources[i][:0]
	}
	for i := range s.srcPos {
		s.srcPos[i] = 0
		s.srcFlit[i] = 0
		s.srcVC[i] = -1
	}
	s.relHeap = s.relHeap[:0]
	clear(s.srcMask)
	s.liveSrc = 0
	s.closedLoop = false
	s.succOff = nil
	s.succList = nil
	s.pending = nil
	s.now = 0
	s.ran = false
	s.stats = Stats{
		LinkFlits:   make([]int64, len(s.net.Links)),
		RouterFlits: make([]int64, s.net.NumNodes()),
	}
	s.stats.Activity.SourceFlits = make([]int64, s.net.NumNodes())
	s.latSum = 0
	s.headHops = 0
	s.latencies.Reset()
	s.credits = s.credits[:0]
	clear(s.buffered)
	s.totalBuf = 0
	s.inflight = 0
	clear(s.activeMask)
	s.fault = nil
	s.routeErr = nil
	s.obs = nil
}

// SetObserver attaches a telemetry tap for the next Run (nil detaches).
// Observers are external wiring like fault profiles: Reset clears them, so
// a pooled Sim never leaks one run's collector into the next. The observer
// must not mutate the simulator; it cannot change results (the kernel
// never reads it), only watch them.
func (s *Sim) SetObserver(o Observer) { s.obs = o }

// Inject queues a packet for injection. Must be called before Run.
func (s *Sim) Inject(p Packet) error {
	if s.closedLoop {
		return fmt.Errorf("noc: Inject after InjectClosedLoop (one closed-loop batch per run)")
	}
	if p.SizeFlits <= 0 {
		return fmt.Errorf("noc: packet size %d", p.SizeFlits)
	}
	if int(p.Src) < 0 || int(p.Src) >= s.net.NumNodes() ||
		int(p.Dst) < 0 || int(p.Dst) >= s.net.NumNodes() {
		return fmt.Errorf("noc: endpoints %d->%d out of range", p.Src, p.Dst)
	}
	if p.Release < 0 {
		return fmt.Errorf("noc: negative release %d", p.Release)
	}
	idx := int32(len(s.pkts))
	s.pkts = append(s.pkts, pktMeta{Packet: p})
	s.sources[p.Src] = append(s.sources[p.Src], idx)
	return nil
}

// InjectAll queues a batch of packets, sized up front by growQueues.
func (s *Sim) InjectAll(ps []Packet) error {
	s.growQueues(ps)
	for _, p := range ps {
		if err := s.Inject(p); err != nil {
			return err
		}
	}
	return nil
}

// growQueues sizes the packet table and every source queue for a batch
// in one counting pass, so the batch grows each at most once instead of
// once per doubling. Packets with an out-of-range source count nothing;
// the injection that follows rejects them.
func (s *Sim) growQueues(ps []Packet) {
	s.pkts = slices.Grow(s.pkts, len(ps))
	n := s.net.NumNodes()
	need := make([]int, n)
	for _, p := range ps {
		if uint(p.Src) < uint(n) {
			need[p.Src]++
		}
	}
	for node, c := range need {
		s.sources[node] = slices.Grow(s.sources[node], c)
	}
}

// Run simulates until every injected packet has fully ejected, or MaxCycles
// elapses (an error: the network failed to drain). A Sim runs once; call
// Reset before reusing it.
func (s *Sim) Run() (Stats, error) {
	if s.ran {
		return s.stats, fmt.Errorf("noc: Run called again without Reset")
	}
	s.ran = true
	// Stable order: by release cycle, then insertion order. Each source
	// with pending packets parks in the release heap until its first
	// packet is due.
	for node := range s.sources {
		q := s.sources[node]
		slices.SortStableFunc(q, func(a, b int32) int {
			ra, rb := s.pkts[a].Release, s.pkts[b].Release
			switch {
			case ra < rb:
				return -1
			case ra > rb:
				return 1
			default:
				return 0
			}
		})
		if len(q) > 0 {
			s.heapPush(srcRel{rel: s.pkts[q[0]].Release, node: int32(node)})
		}
	}
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 40
	}
	s.latencies.Grow(len(s.pkts))
	remaining := int64(len(s.pkts))
	for remaining > 0 {
		if s.now >= maxCycles {
			// Distinguishable saturated status: the partial census up to
			// the cap, with the cycle count set (not silently truncated),
			// and a typed error callers match with errors.Is(ErrSaturated).
			s.stats.Cycles = s.now
			return s.stats, &SaturatedError{Remaining: remaining, Cycles: s.now}
		}
		if s.routeErr != nil {
			s.stats.Cycles = s.now
			return s.stats, s.routeErr
		}
		// Closed-loop deadlock guard: with nothing buffered, in flight or
		// parked, no remaining packet can ever become releasable — every
		// one waits on a dependency that will never complete. Possible
		// only on a cyclic dependency graph (taskgraph.Validate rejects
		// those up front); surface it as a named error instead of spinning
		// to MaxCycles.
		if s.closedLoop && s.totalBuf == 0 && s.liveSrc == 0 &&
			s.inflight == 0 && len(s.relHeap) == 0 {
			s.stats.Cycles = s.now
			return s.stats, fmt.Errorf("noc: closed-loop stall with %d packets blocked on dependencies that cannot complete (cyclic graph?)", remaining)
		}
		// Leap over provably idle cycles. With nothing buffered and no
		// live source, every router stage and the injection scan are
		// no-ops until either an in-flight flit arrives (the next
		// non-empty calendar bucket) or a parked source releases
		// (relHeap top) — nothing else can change state: credits apply
		// in the cycle that sends them, so the credit queue is empty
		// here. Jump the clock straight to the earliest such event.
		// This generalizes the historical trace-gap fast-forward (which
		// required inflight == 0) to mid-flight gaps, where long express
		// channels leave the whole fabric idle for multi-cycle stretches.
		if s.totalBuf == 0 && s.liveSrc == 0 && !s.cfg.DisableIdleSkip {
			next := int64(-1)
			if s.inflight > 0 {
				cl := int64(len(s.calendar))
				for off := int64(0); off < cl; off++ {
					if len(s.calendar[(s.now+off)%cl]) > 0 {
						next = s.now + off
						break
					}
				}
			}
			if len(s.relHeap) > 0 && (next < 0 || s.relHeap[0].rel < next) {
				next = s.relHeap[0].rel
			}
			if next > s.now {
				s.now = next
			}
		}
		s.deliverLinkArrivals()
		s.injectFromSources()
		s.routeAndAllocateVCs()
		ejected := s.switchAllocateAndSend()
		s.applyCredits()
		remaining -= ejected
		if s.cycleHook != nil {
			s.cycleHook()
		}
		s.now++
	}
	s.stats.Cycles = s.now
	if s.stats.PacketsEjected > 0 {
		s.stats.AvgPacketLatencyClks = s.latSum / float64(s.stats.PacketsEjected)
		s.stats.P50PacketLatencyClks = s.latencies.Quantile(0.50)
		s.stats.P95PacketLatencyClks = s.latencies.Quantile(0.95)
		s.stats.P99PacketLatencyClks = s.latencies.Quantile(0.99)
	}
	if len(s.pkts) > 0 {
		s.stats.AvgHopCount = float64(s.headHops) / float64(len(s.pkts))
	}
	return s.stats, nil
}

// activateRouter marks a router as having buffered flits.
func (s *Sim) activateRouter(rid int32) {
	s.activeMask[rid>>6] |= 1 << (uint(rid) & 63)
}

// deliverLinkArrivals moves the flits whose channel delay elapses this
// cycle into the downstream input buffers. Credits were reserved at send
// time, so space is guaranteed. Arrivals in one cycle always target
// distinct (router, port) pairs — each input port is fed by one channel
// and a channel carries at most one flit per cycle — so bucket order
// cannot affect simulation state.
func (s *Sim) deliverLinkArrivals() {
	if s.inflight == 0 {
		return
	}
	bi := int(s.now % int64(len(s.calendar)))
	bucket := s.calendar[bi]
	if len(bucket) == 0 {
		return
	}
	vcs := s.cfg.VCs
	ready := s.now + int64(s.cfg.PipelineClks) - 1
	for i := range bucket {
		e := &bucket[i]
		dst := s.linkDst[e.lid]
		r := &s.routers[dst]
		port := int(s.inPortOf[e.lid])
		vc := &r.in[port*vcs+int(e.f.vc)]
		r.ports[port].push(e.f.vc, vc, bufEntry{f: e.f, ready: ready})
		s.stats.RouterFlits[dst]++
		s.stats.Activity.BufferWrites++
		s.buffered[dst]++
		s.totalBuf++
		s.inflight--
		s.activateRouter(dst)
		if s.obs != nil {
			s.obs.FlitDelivered(e.f.pkt, e.lid, dst, e.f.head, s.now)
		}
	}
	s.calendar[bi] = bucket[:0]
}

// injectFromSources writes up to one flit per ready node per cycle into the
// local injection port, matching the 1 flit/cycle channel rate. Sources are
// woken from the release heap when their next packet is due and parked
// again after its tail flit; a node stays live while blocked on buffer
// space, exactly as the historical full scan retried it each cycle.
func (s *Sim) injectFromSources() {
	for len(s.relHeap) > 0 && s.relHeap[0].rel <= s.now {
		e := s.heapPop()
		w := int(e.node) >> 6
		bit := uint64(1) << (uint(e.node) & 63)
		if s.srcMask[w]&bit != 0 {
			continue // already live: a duplicate closed-loop wake
		}
		// Closed-loop dependency completions reshape source queues after
		// wake entries were pushed, so an entry can be stale: the node's
		// head packet may be a later one (re-park at its release) or the
		// queue exhausted (drop the wake). Open-loop queues are immutable
		// after Run starts, so this filter never fires there.
		if s.closedLoop && !s.sourceDue(int(e.node)) {
			continue
		}
		s.srcMask[w] |= bit
		s.liveSrc++
	}
	if s.liveSrc == 0 {
		return
	}
	for w := range s.srcMask {
		word := s.srcMask[w]
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.injectNode(node)
		}
	}
}

// parkSource clears a node from the live set.
func (s *Sim) parkSource(node int) {
	s.srcMask[node>>6] &^= 1 << (uint(node) & 63)
	s.liveSrc--
}

// injectNode attempts to inject one flit of the node's current packet.
func (s *Sim) injectNode(node int) {
	pi := s.sources[node][s.srcPos[node]]
	p := &s.pkts[pi]
	r := &s.routers[node]
	vcs := s.cfg.VCs
	seq := s.srcFlit[node]
	var vcIdx int8
	if seq == 0 {
		// Head flit: claim a free injection VC with space.
		vcIdx = -1
		for v := 0; v < vcs; v++ {
			vc := &r.in[v]
			if vc.writer == -1 && vc.q.len() < s.cfg.BufDepthFlits {
				vcIdx = int8(v)
				break
			}
		}
		if vcIdx < 0 {
			return // all injection VCs busy or full
		}
		r.in[vcIdx].writer = pi
		s.srcVC[node] = vcIdx
	} else {
		vcIdx = s.srcVC[node]
		if r.in[vcIdx].q.len() >= s.cfg.BufDepthFlits {
			return // wait for space
		}
	}
	vc := &r.in[vcIdx]
	f := flit{
		pkt:  pi,
		seq:  seq,
		vc:   vcIdx,
		head: seq == 0,
		tail: int(seq) == p.SizeFlits-1,
	}
	r.ports[0].push(vcIdx, vc, bufEntry{f: f, ready: s.now + int64(s.cfg.PipelineClks) - 1})
	s.stats.FlitsInjected++
	s.stats.RouterFlits[node]++
	s.stats.Activity.BufferWrites++
	s.stats.Activity.SourceFlits[node]++
	s.buffered[node]++
	s.totalBuf++
	s.activateRouter(int32(node))
	if f.head {
		s.stats.PacketsInjected++
	}
	if s.obs != nil {
		if f.head {
			s.obs.PacketInjected(pi, p.Packet, s.now)
		}
		s.obs.FlitInjected(pi, int32(node), s.now)
	}
	if f.tail {
		vc.writer = -1
		s.srcVC[node] = -1
		s.srcFlit[node] = 0
		s.srcPos[node]++
		// Park the node until its next packet is due (or for good).
		pos := s.srcPos[node]
		if pos >= len(s.sources[node]) {
			s.parkSource(node)
		} else if rel := s.pkts[s.sources[node][pos]].Release; rel > s.now {
			s.parkSource(node)
			s.heapPush(srcRel{rel: rel, node: int32(node)})
		}
	} else {
		s.srcFlit[node] = seq + 1
	}
}

// routeAndAllocateVCs performs route computation for unrouted head flits at
// buffer fronts and allocates free output VCs round-robin per output port,
// visiting only routers with buffered flits.
func (s *Sim) routeAndAllocateVCs() {
	for w, word := range s.activeMask {
		for word != 0 {
			rid := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.routeRouter(rid)
		}
	}
}

// routeRouter is route computation plus VC allocation for one router.
func (s *Sim) routeRouter(rid int) {
	r := &s.routers[rid]
	vcs := s.cfg.VCs
	// One pass over the occupied VCs without an output VC, in packed
	// (port, vc) order, which fixes each output's requester order: route
	// unrouted heads, then gather every routed VC as a requester of its
	// output port. Routing one VC never changes another's request (a VC
	// requests exactly its routed port), so this equals routing every VC
	// first and gathering after.
	nreq := 0
	for p := range r.ports {
		ip := &r.ports[p]
		for m := ip.occ &^ ip.elig; m != 0; m &= m - 1 {
			i := p*vcs + bits.TrailingZeros64(m)
			vc := &r.in[i]
			if !vc.routed && !s.routeHead(r, rid, p, vc) {
				continue
			}
			op := int(vc.outPort)
			s.reqs[op] = append(s.reqs[op], int32(i))
			nreq++
		}
	}
	if nreq == 0 {
		return
	}
	// VC allocation per output port: free output VCs in index order;
	// requesters served round-robin starting at vaPtr. Under dateline
	// classing a VC may only go to a requester of its class: class 0
	// owns the lower partition, class 1 the upper.
	for op := range r.out {
		reqs := s.reqs[op]
		if len(reqs) == 0 {
			continue
		}
		out := &r.out[op]
		for fv, owner := range out.owner {
			if owner != -1 || len(reqs) == 0 {
				continue
			}
			n := len(reqs)
			for k := 0; k < n; k++ {
				pick := (out.vaPtr + k) % n
				req := reqs[pick]
				if out.classed && s.vcClass(int8(fv)) != r.in[req].outCls {
					continue
				}
				reqs = append(reqs[:pick], reqs[pick+1:]...)
				out.vaPtr++
				r.in[req].outVC = int8(fv)
				out.owner[fv] = req
				// A requester is occupied, so the grant makes it eligible.
				r.ports[int(req)/vcs].elig |= 1 << uint(int(req)%vcs)
				break
			}
		}
		s.reqs[op] = reqs[:0]
	}
}

// routeHead computes the output port of the head flit at the front of
// input VC vc (port p of router rid) and marks the VC routed. It returns
// false, leaving the VC unrouted, when the front flit is not a head or the
// table has no route.
func (s *Sim) routeHead(r *router, rid, p int, vc *vcState) bool {
	head := vc.q.front()
	if !head.f.head {
		return false
	}
	dst := s.pkts[head.f.pkt].Dst
	vc.outCls = head.f.cls
	if topology.NodeID(rid) == dst {
		vc.outPort = 0
	} else {
		lid := s.tab.NextLink(topology.NodeID(rid), dst)
		if lid < 0 {
			// Degraded table with no route: abort the run with a named
			// error instead of panicking on the missing port. The flit
			// stays unrouted; Run surfaces the error at the top of the
			// next cycle.
			if s.routeErr == nil {
				s.routeErr = fmt.Errorf("noc: packet %d -> %d unroutable at router %d: %w",
					s.pkts[head.f.pkt].Src, dst, rid, routing.ErrUnreachable)
			}
			return false
		}
		vc.outPort = s.outPortOf[lid]
		// The X→Y dimension transition starts a fresh ring, so the
		// dateline class resets; the Y ring then sets it again at its
		// own wrap.
		if r.ports[p].isX && r.outIsY[vc.outPort] {
			vc.outCls = 0
		}
		if s.net.Links[lid].Dateline && vc.outCls == 0 {
			vc.outCls = 1
		}
	}
	vc.routed = true
	vc.outVC = -1
	return true
}

// switchAllocateAndSend is the separable switch allocator plus traversal:
// one candidate VC per input port (round-robin), one grant per output port
// (round-robin), then flit movement, visiting only routers with buffered
// flits. Returns packets fully ejected this cycle.
func (s *Sim) switchAllocateAndSend() int64 {
	var ejected int64
	for w := range s.activeMask {
		// Snapshot the word: sends may drain a router to zero and clear
		// its own bit, but never activate another router mid-phase.
		word := s.activeMask[w]
		for word != 0 {
			rid := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.switchRouter(rid, &ejected)
		}
	}
	return ejected
}

// switchRouter runs switch allocation and traversal for one router.
func (s *Sim) switchRouter(rid int, ejected *int64) {
	r := &s.routers[rid]
	vcs := s.cfg.VCs
	nin := len(r.ports)
	cand, win := s.cand, s.win
	ncand := 0
	for p := range r.ports {
		ip := &r.ports[p]
		if ip.elig == 0 {
			continue
		}
		// Input stage: the first eligible VC round-robin from saPtr that
		// is pipeline-ready and has downstream space. Rotating the mask
		// right by saPtr puts VC saPtr at bit 0 and wraps the VCs below
		// it to the top bits, so trailing zeros visit VCs in round-robin
		// order.
		ptr := int(ip.saPtr)
		v := -1
		for m := bits.RotateLeft64(ip.elig, -ptr); m != 0; m &= m - 1 {
			c := (bits.TrailingZeros64(m) + ptr) & 63
			vc := &r.in[p*vcs+c]
			if vc.q.front().ready > s.now {
				continue
			}
			if vc.outPort != 0 && r.out[vc.outPort].credits[vc.outVC] <= 0 {
				continue // no downstream space
			}
			v = c
			break
		}
		if v < 0 {
			continue
		}
		// Output stage, folded into the same pass: each candidate
		// requests exactly one output, whose round-robin winner is the
		// first requesting port at or after its saPtr, else the first
		// requesting port overall. Ports arrive in ascending order, so
		// one comparison per candidate keeps the winner.
		cand[p] = int32(v)
		ncand++
		op := r.in[p*vcs+v].outPort
		if w := int(win[op]); w < 0 || (w < r.out[op].saPtr && p >= r.out[op].saPtr) {
			win[op] = int32(p)
		}
	}
	if ncand == 0 {
		return
	}
	// Send in output-port order. A send changes only its own input VC, so
	// the grants above stay valid throughout.
	for op := range r.out {
		p := int(win[op])
		if p < 0 {
			continue
		}
		win[op] = -1
		if p+1 == nin {
			r.out[op].saPtr = 0
		} else {
			r.out[op].saPtr = p + 1
		}
		s.sendFlit(rid, p, int(cand[p]), op, ejected)
	}
}

// sendFlit pops the head flit of input (port, v) and moves it through output
// port op: onto the channel, or out of the network for ejection.
func (s *Sim) sendFlit(rid, port, v, op int, ejected *int64) {
	r := &s.routers[rid]
	vc := &r.in[port*s.cfg.VCs+v]
	out := &r.out[op]
	if s.fault != nil && op != 0 && s.faultIntercept(rid, port, v, vc, out) {
		return // corrupted traversal; the flit stays buffered for retry
	}
	e := vc.q.pop()
	ip := &r.ports[port]
	ip.saPtr = int32(v + 1)
	bit := uint64(1) << uint(v)
	if vc.q.len() == 0 {
		ip.occ &^= bit
		ip.elig &^= bit
	}
	s.stats.Activity.BufferReads++
	s.stats.Activity.CrossbarTraversals++
	s.buffered[rid]--
	s.totalBuf--
	if s.buffered[rid] == 0 {
		s.activeMask[rid>>6] &^= 1 << (uint(rid) & 63)
	}

	// Return a credit upstream for the freed buffer slot (injection port
	// slots are source-managed, not credited).
	if port != 0 {
		lid := ip.link
		s.credits = append(s.credits, creditEvent{
			r:    s.linkSrc[lid],
			port: s.outPortOf[lid],
			vc:   e.f.vc,
		})
	}

	if op == 0 {
		// Ejection: retire the flit at now+1 (switch traversal).
		p := &s.pkts[e.f.pkt]
		s.stats.FlitsEjected++
		if e.f.tail {
			if t := s.now + 1; t > s.stats.MakespanClks {
				s.stats.MakespanClks = t
			}
			if s.closedLoop {
				s.completeSuccessors(e.f.pkt)
			}
			if p.dropped {
				// Retransmission budget exhausted mid-route: the packet
				// arrived corrupt and is discarded here, reported
				// explicitly rather than counted as delivered.
				s.stats.PacketsDropped++
			} else {
				s.stats.PacketsEjected++
				lat := float64(s.now + 1 - p.Release)
				s.latSum += lat
				s.latencies.Add(lat)
				if l := s.now + 1 - p.Release; l > s.stats.MaxPacketLatencyClks {
					s.stats.MaxPacketLatencyClks = l
				}
			}
			*ejected++
		}
	} else {
		// Channel traversal: file the flit in the arrival calendar
		// under its delivery cycle.
		lid := out.link
		f := e.f
		f.vc = int8(vc.outVC)
		f.cls = vc.outCls
		arrive := s.now + 1 + int64(s.linkLat[lid])
		bi := int(arrive % int64(len(s.calendar)))
		s.calendar[bi] = append(s.calendar[bi], arrival{f: f, lid: int32(lid)})
		out.credits[vc.outVC]--
		s.stats.LinkFlits[lid]++
		s.stats.Activity.LinkFlitHops[s.linkClass[lid]]++
		if s.linkExpr[lid] {
			s.stats.Activity.ExpressFlitHops++
		}
		s.inflight++
		if e.f.head {
			s.headHops++
		}
	}

	if s.obs != nil {
		lid := int32(-1)
		if op != 0 {
			lid = int32(out.link)
		}
		dropped := op == 0 && e.f.tail && s.pkts[e.f.pkt].dropped
		s.obs.FlitSent(e.f.pkt, int32(rid), lid, e.f.head, e.f.tail, dropped, s.now)
	}

	// Tail departure releases the output VC and the route; a flit behind
	// the tail is the next packet's head, not yet routed.
	if e.f.tail {
		if vc.outVC >= 0 {
			out.owner[vc.outVC] = -1
		}
		vc.routed = false
		vc.outVC = -1
		ip.elig &^= bit
	}
}

// push buffers e in VC v (state vc) of the port. The VC becomes occupied,
// and eligible when it already owns an output VC — a worm whose head has
// left. outVC >= 0 implies routed: only a routed VC is granted one, and
// the tail releases both together.
func (ip *inPort) push(v int8, vc *vcState, e bufEntry) {
	vc.q.push(e)
	bit := uint64(1) << uint(v)
	ip.occ |= bit
	if vc.outVC >= 0 {
		ip.elig |= bit
	}
}

// applyCredits returns freed buffer slots to upstream routers; buffered so
// the increments become visible next cycle.
func (s *Sim) applyCredits() {
	for _, c := range s.credits {
		s.routers[c.r].out[c.port].credits[c.vc]++
	}
	s.credits = s.credits[:0]
}

// heapLess orders the release heap by (release, node): node breaks ties so
// pop order is fully deterministic.
func heapLess(a, b srcRel) bool {
	return a.rel < b.rel || (a.rel == b.rel && a.node < b.node)
}

// heapPush adds a parked source to the release min-heap.
func (s *Sim) heapPush(e srcRel) {
	h := append(s.relHeap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.relHeap = h
}

// heapPop removes and returns the earliest parked source.
func (s *Sim) heapPop() srcRel {
	h := s.relHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && heapLess(h[l], h[m]) {
			m = l
		}
		if r < n && heapLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.relHeap = h
	return top
}

// vcClass maps a VC index to its dateline class: the lower partition is
// class 0, the upper class 1.
func (s *Sim) vcClass(v int8) int8 {
	if v < s.class0VCs {
		return 0
	}
	return 1
}

// Now returns the current simulation cycle (for tests/diagnostics).
func (s *Sim) Now() int64 { return s.now }
