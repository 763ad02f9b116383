// Package gpusim assembles a runnable simulated node: the discrete-event
// engine, the fabric network for every interconnect (per-card PCIe with
// host-side pools, stack-to-stack MDFI, Xe-Link/NVLink/IF peer links), and
// the performance model for kernel launches. Microbenchmarks and mini-apps
// drive it exactly like a GPU runtime: processes launch kernels on stacks
// and issue memcpys, and virtual time advances accordingly.
package gpusim

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"pvcsim/internal/fabric"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// defaultLaneShards is the process-wide lane-partition default consulted
// by New/NewCluster: 0 means one event lane per stack (full sharding),
// 1 means everything on the engine's coordination lane (the serial
// reference the parity tests compare against), k means k lanes per node
// with stacks assigned round-robin.
var defaultLaneShards atomic.Int64

// SetLaneSharding sets the process-wide lane-partition default; see
// defaultLaneShards for the encoding. It exists for parity tests and
// experiments — production builds keep the full per-stack sharding.
func SetLaneSharding(n int) { defaultLaneShards.Store(int64(n)) }

// LaneSharding returns the current lane-partition default.
func LaneSharding() int { return int(defaultLaneShards.Load()) }

// Machine is one simulated node. Its state — queues, per-stack
// buffers, peer links — is partitioned across event lanes at build
// time, so lane code may only touch it through its own lane's slots:
//
//laneguard:pinned sharded
type Machine struct {
	Eng   *sim.Engine
	Net   *fabric.Network
	Node  *topology.NodeSpec
	Model *perfmodel.Model

	cards     []*card
	poolH2D   *fabric.Constraint
	poolD2H   *fabric.Constraint
	poolBidir *fabric.Constraint
	peerLinks map[stackPair]*fabric.Link
	queues    map[topology.StackID]*sim.Resource
	lanes     map[topology.StackID]sim.LaneID
	laneIdx   map[sim.LaneID]int // machine-local lane ordinal (0 = coordination lane)
	bufLane   []sim.LaneID       // buffer index -> owning lane (stacks first, then lanes)
	nStacks   int
	rec       *Recorder
	recBufs   [][]TraceEvent // per-source legacy-recorder buffers
	sink      obs.Recorder   // the recorder handed to Observe
	laneSet   *obs.LaneSet   // per-source buffers feeding sink; nil when detached

	// prefix namespaces constraint/queue names and gpuBase offsets the
	// recorded GPU index when the machine is one node of a cluster;
	// both are zero for a standalone node, keeping its output
	// byte-identical to the pre-cluster model. shared marks a machine
	// whose engine and network belong to a cluster, which then owns the
	// network's recorder wiring.
	prefix  string
	gpuBase int
	shared  bool
}

// Observe attaches an observability recorder to the machine. Model
// emissions from simulation processes land in per-lane buffers (one per
// event lane) that Run merges into r in deterministic lane order; the
// performance model additionally keeps a direct reference for analytic
// host-side callers, and the fabric network records through the
// coordination lane's buffer. Pass nil to detach.
func (m *Machine) Observe(r obs.Recorder) {
	m.sink = r
	m.Model.Observe(r)
	m.laneSet = nil
	if r != nil {
		m.laneSet = obs.NewLaneSet(r)
		// Create every buffer up front, on the host: bufFor runs on
		// stack lanes, and growing the LaneSet table there would be a
		// cross-lane write (the singlewriter analyzer flags it). Lanes
		// only ever read their slot via LaneSet.Buffer.
		for idx, lane := range m.bufLane {
			m.laneSet.Lane(idx, func() units.Seconds { return m.Eng.LaneNow(lane) })
		}
	}
	if !m.shared {
		m.Net.Observe(m.laneBuf(m.Net.Lane()))
	}
}

// Observer returns the attached recorder (nil when disabled), so
// machine-building helpers can inherit it.
func (m *Machine) Observer() obs.Recorder { return m.sink }

// Buffer layout: indices 0..nStacks-1 are per-stack buffers (written
// only by the stack's own lane, under its in-order queue), and
// nStacks+i is the misc buffer of the machine's i-th lane (memcpy
// spans, hop counters, fabric emissions — whatever the lane records
// outside a kernel launch). Keying the order-sensitive float counters
// (model.flops, power.throttled_s) by *stack* rather than lane makes
// the merged accumulation order a property of the workload, not of the
// lane partition, which is what keeps metrics byte-identical across
// lane counts.

// srcOf maps a stack to its buffer index.
func (m *Machine) srcOf(st topology.StackID) int {
	return st.GPU*m.Node.GPU.SubCount + st.Stack
}

// laneBufIdx maps a lane to its misc-buffer index. Lanes not owned by
// this machine (a cluster peer's) fall back to the coordination lane's
// buffer; machine operations never run on foreign lanes.
func (m *Machine) laneBufIdx(lane sim.LaneID) int {
	li, ok := m.laneIdx[lane]
	if !ok {
		li = 0
	}
	return m.nStacks + li
}

// bufFor returns the buffered recorder at a buffer index (nil when the
// machine is not observed). Each buffer is written by exactly one lane,
// so concurrent lanes never contend; Run flushes the merge. All
// buffers exist from Observe time, so this is a pure read of the table.
func (m *Machine) bufFor(idx int) obs.Recorder {
	if m.laneSet == nil {
		return nil
	}
	if b := m.laneSet.Buffer(idx); b != nil {
		return b
	}
	return nil
}

// stackBuf is the buffer a stack's kernel launches record into.
func (m *Machine) stackBuf(st topology.StackID) obs.Recorder { return m.bufFor(m.srcOf(st)) }

// laneBuf is the misc buffer of the given lane.
func (m *Machine) laneBuf(lane sim.LaneID) obs.Recorder { return m.bufFor(m.laneBufIdx(lane)) }

// flushObs merges the per-lane observability and legacy-recorder
// buffers into their sinks. Run calls it on every exit path, including
// errors, so partial runs keep their observations; it is idempotent
// between runs.
func (m *Machine) flushObs() {
	if m.laneSet != nil {
		m.laneSet.Flush()
	}
	if m.rec != nil {
		for lane := range m.recBufs {
			for _, e := range m.recBufs[lane] {
				m.rec.add(e)
			}
			m.recBufs[lane] = nil
		}
	}
}

// stackPair is an unordered pair of subdevices keyed canonically.
type stackPair struct {
	a, b topology.StackID
}

func pairKey(a, b topology.StackID) stackPair {
	if a.GPU > b.GPU || (a.GPU == b.GPU && a.Stack > b.Stack) {
		a, b = b, a
	}
	return stackPair{a, b}
}

type card struct {
	pcie     *fabric.Link
	internal *fabric.Link // stack-to-stack, nil when SubCount == 1
}

// New builds a machine for the node on its own engine and network, with
// the process-wide lane partition (one event lane per stack by default).
func New(node *topology.NodeSpec) (*Machine, error) {
	return NewWithLanes(node, LaneSharding())
}

// NewWithLanes is New with an explicit lane partition: 1 runs every
// stack on the engine's coordination lane (the serial reference the
// parity tests compare against), 0 gives each stack its own event lane,
// and k in between shards stacks round-robin over k lanes.
func NewWithLanes(node *topology.NodeSpec, shards int) (*Machine, error) {
	eng := sim.NewEngine()
	return newOn(eng, fabric.NewNetwork(eng), node, "", 0, shards)
}

// newOn builds a machine on a caller-supplied engine and network — the
// shared-clock path a Cluster uses to co-simulate several nodes.
func newOn(eng *sim.Engine, net *fabric.Network, node *topology.NodeSpec, prefix string, gpuBase int, shards int) (*Machine, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Eng:       eng,
		Net:       net,
		Node:      node,
		Model:     perfmodel.New(node),
		peerLinks: map[stackPair]*fabric.Link{},
		queues:    map[topology.StackID]*sim.Resource{},
		lanes:     map[topology.StackID]sim.LaneID{},
		laneIdx:   map[sim.LaneID]int{},
		prefix:    prefix,
		gpuBase:   gpuBase,
		shared:    prefix != "",
	}
	// Lane partition: each stack's compute queue — and every process
	// pinned behind it — lives on one event lane, assigned round-robin
	// over the shard count. Shard count 1 keeps the coordination lane
	// only; the machine then behaves exactly like the pre-lane serial
	// engine.
	subs := node.Subdevices()
	k := shards
	if k <= 0 || k > len(subs) {
		k = len(subs)
	}
	group := make([]sim.LaneID, k)
	laneIDs := []sim.LaneID{0}
	for i := range group {
		if k == 1 {
			group[i] = 0
		} else {
			group[i] = eng.NewLane()
			laneIDs = append(laneIDs, group[i])
		}
	}
	for i, id := range laneIDs {
		m.laneIdx[id] = i
	}
	m.nStacks = len(subs)
	for i, st := range subs {
		lane := group[i%k]
		m.lanes[st] = lane
		m.queues[st] = sim.NewResourceOn(eng, lane, prefix+"queue:"+st.String(), 1)
		m.bufLane = append(m.bufLane, lane)
	}
	m.bufLane = append(m.bufLane, laneIDs...)
	m.poolH2D = net.MustConstraint(prefix+"host/h2d-pool", node.HostH2DPool)
	m.poolD2H = net.MustConstraint(prefix+"host/d2h-pool", node.HostD2HPool)
	m.poolBidir = net.MustConstraint(prefix+"host/bidir-pool", node.HostBidirPool)
	gpu := node.GPU
	for i := 0; i < node.GPUCount; i++ {
		name := prefix + "card" + strconv.Itoa(i)
		c := &card{
			pcie: fabric.NewLink(net, name+"/pcie",
				gpu.HostLink.Sustained(), gpu.HostLink.DuplexFactor, gpu.HostLink.Latency),
		}
		if gpu.SubCount > 1 {
			c.internal = fabric.NewLink(net, name+"/internal",
				gpu.InternalLink.Sustained(), gpu.InternalLink.DuplexFactor, gpu.InternalLink.Latency)
		}
		m.cards = append(m.cards, c)
	}
	// Pre-size the legacy-recorder buffers and pre-create every
	// cross-card peer link: record() and the D2D routes run on stack
	// lanes, where growing a shared slice or filling a shared map would
	// be a cross-lane write (laneaffinity flags it). Constraints are
	// passive until a flow uses them, so eager link creation changes no
	// simulated output.
	m.recBufs = make([][]TraceEvent, m.nStacks+len(laneIDs))
	spec := gpu.PeerLink
	for i, a := range subs {
		for _, b := range subs[i+1:] {
			if a.GPU == b.GPU {
				continue
			}
			key := pairKey(a, b)
			m.peerLinks[key] = fabric.NewLink(net, prefix+"peer"+key.a.String()+"-"+key.b.String(),
				spec.Sustained(), spec.DuplexFactor, spec.Latency)
		}
	}
	return m, nil
}

// MustNew is New for the standard nodes, panicking on misconfiguration.
func MustNew(node *topology.NodeSpec) *Machine {
	m, err := New(node)
	if err != nil {
		panic(err)
	}
	return m
}

// peerLink returns the inter-card path between two subdevices, created
// at build time (newOn pre-creates every cross-card pair so lane code
// never mutates the map). Xe-Link (and its NVLink/IF counterparts)
// provides a distinct port per stack pair: six disjoint remote stack
// pairs on Aurora each sustain the full per-pair bandwidth (Table III:
// 95 ≈ 6 × 15 GB/s).
func (m *Machine) peerLink(a, b topology.StackID) *fabric.Link {
	return m.peerLinks[pairKey(a, b)]
}

// Stack is a handle to one subdevice; it shares the machine's
// lane-partitioned state.
//
//laneguard:pinned sharded
type Stack struct {
	m  *Machine
	ID topology.StackID
}

// Stack returns the handle for a subdevice.
func (m *Machine) Stack(id topology.StackID) (*Stack, error) {
	if id.GPU < 0 || id.GPU >= m.Node.GPUCount || id.Stack < 0 || id.Stack >= m.Node.GPU.SubCount {
		return nil, fmt.Errorf("gpusim: no stack %v on %s", id, m.Node.Name)
	}
	return &Stack{m: m, ID: id}, nil
}

// Stacks returns handles for every subdevice in rank order.
func (m *Machine) Stacks() []*Stack {
	var out []*Stack
	for _, id := range m.Node.Subdevices() {
		out = append(out, &Stack{m: m, ID: id})
	}
	return out
}

// queue returns the stack's in-order compute queue (created at build
// time on the stack's event lane).
func (s *Stack) queue() *sim.Resource { return s.m.queues[s.ID] }

// Lane returns the event lane the stack's compute queue lives on.
func (s *Stack) Lane() sim.LaneID { return s.m.lanes[s.ID] }

// LaneFor returns the event lane a stack is assigned to.
func (m *Machine) LaneFor(id topology.StackID) sim.LaneID { return m.lanes[id] }

// LaunchKernel blocks the process for the modeled execution time of the
// profile on this stack. Kernels on the same stack serialize through its
// in-order compute queue, as on real hardware: two processes launching on
// one stack take the sum of their kernel times, not the max. Acquiring
// the queue migrates the process to the stack's event lane.
func (s *Stack) LaunchKernel(p *sim.Proc, kp perfmodel.Profile) {
	q := s.queue()
	q.Acquire(p)
	start := p.Now()
	pk := s.m.Model.Price(kp)
	bound := ""
	if lb := s.m.stackBuf(s.ID); lb != nil {
		bound = pk.Bound
		// The serial model emitted these counters inline while timing
		// and attributing the launch; the lane path prices quietly and
		// reproduces the identical sequence in the stack's own buffer.
		if pk.Throttled {
			lb.Add("power.throttle_events", 1)
		}
		lb.Add("model.flops", kp.Flops)
		lb.Add("model.mem_bytes", float64(kp.MemBytes))
		if pk.Throttled {
			lb.Add("power.throttled_s", float64(pk.Time))
			lb.Add("power.throttle_events", 1) // the attribution pass re-reads the governed clock
		}
	}
	p.Hold(pk.Time)
	s.m.record(s.m.srcOf(s.ID), kp.Name, "kernel", s.ID, start, p.Now(), kp.MemBytes, kp.Flops, bound)
	q.Release()
}

// Hold blocks the process for a fixed duration on this stack (CPU-side or
// fixed-cost phases).
func (s *Stack) Hold(p *sim.Proc, d units.Seconds) { p.Hold(d) }

// MemcpyH2D transfers size bytes from pinned host memory to the stack.
// Both stacks of a card share its single PCIe link ("Only the first
// Xe-Stack contains the PCIe link"), and all cards share the host pools.
func (s *Stack) MemcpyH2D(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	cs := append(c.pcie.Dir(false), s.m.poolH2D, s.m.poolBidir)
	start := p.Now()
	s.m.Net.Transfer(p, fabric.StackLabel("h2d", s.ID), size, c.pcie.Latency, cs...)
	s.m.record(s.m.laneBufIdx(p.Lane()), "memcpy", "h2d", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// MemcpyD2H transfers size bytes from the stack to pinned host memory.
func (s *Stack) MemcpyD2H(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	cs := append(c.pcie.Dir(true), s.m.poolD2H, s.m.poolBidir)
	start := p.Now()
	s.m.Net.Transfer(p, fabric.StackLabel("d2h", s.ID), size, c.pcie.Latency, cs...)
	s.m.record(s.m.laneBufIdx(p.Lane()), "memcpy", "d2h", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// MemcpyD2D transfers size bytes from this stack to dst, routed per the
// node topology: the in-card MDFI path for sibling stacks, one Xe-Link
// (or NVLink/IF) hop for plane-aligned remote stacks, and an extra
// internal hop — with its latency and bandwidth cost — for cross-plane
// pairs (§IV-A4).
func (s *Stack) MemcpyD2D(p *sim.Proc, dst topology.StackID, size units.Bytes) error {
	kind := s.m.Node.Route(s.ID, dst)
	start := p.Now()
	switch kind {
	case topology.SameStack:
		// Local copy at memory bandwidth: two passes (read + write).
		t := units.TimeToMove(2*size, units.ByteRate(float64(s.m.Node.GPU.Sub.MemBWSustained)))
		p.Hold(t)
		s.m.record(s.m.laneBufIdx(p.Lane()), "memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	case topology.LocalStack:
		c := s.m.cards[s.ID.GPU]
		if c.internal == nil {
			return fmt.Errorf("gpusim: %s has no internal link", s.m.Node.Name)
		}
		rev := s.ID.Stack > dst.Stack
		s.m.countHops(p.Lane(), kind)
		s.m.Net.Transfer(p, fabric.RouteLabel("d2d", s.ID, dst), size, c.internal.Latency, c.internal.Dir(rev)...)
		s.m.record(s.m.laneBufIdx(p.Lane()), "memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	case topology.RemoteDirect, topology.RemoteExtraHop:
		link := s.m.peerLink(s.ID, dst)
		rev := s.ID.GPU > dst.GPU
		cs := link.Dir(rev)
		latency := link.Latency
		if kind == topology.RemoteExtraHop {
			// The driver routes via a partner stack: add the internal
			// hop's latency and consume its bandwidth too.
			c := s.m.cards[s.ID.GPU]
			if c.internal != nil {
				cs = append(cs, c.internal.Dir(s.ID.Stack > 0)...)
				latency += c.internal.Latency
			}
		}
		s.m.countHops(p.Lane(), kind)
		s.m.Net.Transfer(p, fabric.RouteLabel("d2d", s.ID, dst), size, latency, cs...)
		s.m.record(s.m.laneBufIdx(p.Lane()), "memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	default:
		return fmt.Errorf("gpusim: unroutable path %v -> %v", s.ID, dst)
	}
}

// routeBound maps a routed transfer path onto its binding resource:
// same-stack copies run at HBM bandwidth, sibling stacks cross the
// in-card MDFI link, plane-aligned peers take one Xe-Link hop, and
// cross-plane pairs pay the extra internal hop.
func routeBound(kind topology.PathKind) string {
	switch kind {
	case topology.SameStack:
		return prof.BoundHBM
	case topology.LocalStack:
		return prof.BoundFabricLocal
	case topology.RemoteExtraHop:
		return prof.BoundFabricXPlane
	default:
		return prof.BoundFabricRemote
	}
}

// countHops accumulates the fabric.hops counter for a routed transfer
// into the calling lane's buffer: one hop for the in-card MDFI path or a
// direct peer link, two when the driver adds the internal detour for
// cross-plane pairs.
func (m *Machine) countHops(lane sim.LaneID, kind topology.PathKind) {
	lb := m.laneBuf(lane)
	if lb == nil {
		return
	}
	hops := 1.0
	if kind == topology.RemoteExtraHop {
		hops = 2
	}
	lb.Add("fabric.hops", hops)
}

// StartD2D begins a non-blocking device-to-device transfer and returns its
// flow; the caller waits with Flow.Wait. It underlies MPI_Isend/Irecv of
// device buffers in the mpirt package.
func (s *Stack) StartD2D(dst topology.StackID, size units.Bytes) (*fabric.Flow, error) {
	kind := s.m.Node.Route(s.ID, dst)
	switch kind {
	case topology.SameStack:
		t := units.TimeToMove(2*size, units.ByteRate(float64(s.m.Node.GPU.Sub.MemBWSustained)))
		return s.m.Net.StartBound(fabric.StackLabel("d2d", s.ID), routeBound(kind), 0, t), nil
	case topology.LocalStack:
		c := s.m.cards[s.ID.GPU]
		if c.internal == nil {
			return nil, fmt.Errorf("gpusim: %s has no internal link", s.m.Node.Name)
		}
		rev := s.ID.Stack > dst.Stack
		s.m.countHops(s.m.Net.Lane(), kind)
		return s.m.Net.StartBound(fabric.RouteLabel("d2d", s.ID, dst), routeBound(kind), size, c.internal.Latency, c.internal.Dir(rev)...), nil
	case topology.RemoteDirect, topology.RemoteExtraHop:
		link := s.m.peerLink(s.ID, dst)
		rev := s.ID.GPU > dst.GPU
		cs := link.Dir(rev)
		latency := link.Latency
		if kind == topology.RemoteExtraHop {
			c := s.m.cards[s.ID.GPU]
			if c.internal != nil {
				cs = append(cs, c.internal.Dir(s.ID.Stack > 0)...)
				latency += c.internal.Latency
			}
		}
		s.m.countHops(s.m.Net.Lane(), kind)
		return s.m.Net.StartBound(fabric.RouteLabel("d2d", s.ID, dst), routeBound(kind), size, latency, cs...), nil
	default:
		return nil, fmt.Errorf("gpusim: unroutable path %v -> %v", s.ID, dst)
	}
}

// Run drives the simulation to completion, then merges the per-lane
// observability buffers into the attached recorders (even on error, so
// partial runs keep their observations).
func (m *Machine) Run() error {
	err := m.Eng.Run()
	m.flushObs()
	return err
}

// Go starts a process on the machine's engine.
func (m *Machine) Go(name string, body func(*sim.Proc)) *sim.Proc {
	return m.Eng.Go(name, body)
}
