package gpusim

import (
	"fmt"
	"strconv"

	"pvcsim/internal/fabric"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Cluster co-simulates several nodes on one discrete-event engine and
// one fabric network: each node is a full Machine (its intra-node links
// namespaced "nodeN/"), plus one NIC link per node and the shared
// switch-fabric pool of the cluster's NetworkSpec. Inter-node transfers
// cross source NIC, global pool and destination NIC as one fluid flow,
// tagged with the fabric.remote-node bound.
type Cluster struct {
	Eng  *sim.Engine
	Net  *fabric.Network
	Spec *topology.ClusterSpec

	nodes   []*Machine
	nics    []*fabric.Link
	global  *fabric.Constraint
	remote  [][]fabric.Path // remote[src][dst]: the inter-node route, built once
	sink    obs.Recorder
	laneSet *obs.LaneSet // coordination-lane buffer (NIC hops, fabric flows)
}

// NewCluster builds a cluster for the spec with the process-wide lane
// partition applied per node.
func NewCluster(spec *topology.ClusterSpec) (*Cluster, error) {
	return NewClusterWithLanes(spec, LaneSharding())
}

// NewClusterWithLanes is NewCluster with an explicit per-node lane
// partition (see NewWithLanes for the encoding).
func NewClusterWithLanes(spec *topology.ClusterSpec, shards int) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net := fabric.NewNetwork(eng)
	c := &Cluster{Eng: eng, Net: net, Spec: spec}
	gpusPerNode := spec.Node.GPUCount
	for i := 0; i < spec.NodeCount; i++ {
		prefix := "node" + strconv.Itoa(i) + "/"
		m, err := newOn(eng, net, spec.Node, prefix, i*gpusPerNode, shards)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, m)
		c.nics = append(c.nics, fabric.NewLink(net, prefix+"nic",
			spec.Network.InjectionBW, spec.Network.DuplexFactor, 0))
	}
	c.global = net.MustConstraint("net/global", spec.Network.GlobalBW)
	c.remote = make([][]fabric.Path, spec.NodeCount)
	for src := range c.remote {
		c.remote[src] = make([]fabric.Path, spec.NodeCount)
		for dst := range c.remote[src] {
			if dst != src {
				c.remote[src][dst] = c.remotePath(src, dst)
			}
		}
	}
	return c, nil
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns the i-th node's machine.
func (c *Cluster) Node(i int) *Machine { return c.nodes[i] }

// Observe attaches a recorder to the cluster and every node machine.
// The shared network records through the cluster's coordination-lane
// buffer (node machines skip their own network wiring when cluster
// owned); Run merges all buffers. Pass nil to detach.
func (c *Cluster) Observe(r obs.Recorder) {
	c.sink = r
	c.laneSet = nil
	if r != nil {
		c.laneSet = obs.NewLaneSet(r)
		// Create the coordination-lane buffer up front, on the host:
		// netBuf runs on the network's lane (StartRemote is reached from
		// rank processes), where growing the LaneSet table would be a
		// cross-lane write.
		lane := c.Net.Lane()
		c.laneSet.Lane(0, func() units.Seconds { return c.Eng.LaneNow(lane) })
	}
	c.Net.Observe(c.netBuf())
	for _, m := range c.nodes {
		m.Observe(r)
	}
}

// netBuf is the cluster's coordination-lane buffer (nil when not
// observed): the shared fabric network and the remote-transfer hop
// counters record into it, always from the network's own lane. The
// buffer exists from Observe time, so this is a pure read of the table.
func (c *Cluster) netBuf() obs.Recorder {
	if c.laneSet == nil {
		return nil
	}
	if b := c.laneSet.Buffer(0); b != nil {
		return b
	}
	return nil
}

// remotePath composes the inter-node route between two nodes: source
// NIC injection, the shared switch-fabric pool, destination NIC
// ejection, plus the network's end-to-end message latency. The cluster
// builds every pair's route once, at construction.
func (c *Cluster) remotePath(src, dst int) fabric.Path {
	return fabric.Path{}.
		Via(c.nics[src].Dir(false)...).
		Via(c.global).
		Via(c.nics[dst].Dir(true)...).
		Plus(c.Spec.Network.RemoteLatency())
}

// StartRemote begins a non-blocking inter-node transfer from a stack on
// node src to a stack on node dst and returns its flow; callers wait
// with Flow.Wait. Same-node pairs must use Stack.StartD2D instead.
func (c *Cluster) StartRemote(src int, from topology.StackID, dst int, to topology.StackID, size units.Bytes) (*fabric.Flow, error) {
	if src < 0 || src >= len(c.nodes) || dst < 0 || dst >= len(c.nodes) {
		return nil, fmt.Errorf("gpusim: inter-node transfer between invalid nodes %d and %d", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("gpusim: nodes %d and %d are the same; use StartD2D", src, dst)
	}
	if b := c.netBuf(); b != nil {
		// NIC-to-NIC hops: every switch traversal plus the two ends.
		b.Add("fabric.hops", float64(c.Spec.Network.Hops+2))
	}
	label := fabric.NodeRouteLabel("n2n", src, from, dst, to)
	return c.Net.StartPath(label, prof.BoundFabricNode, size, c.remote[src][dst]), nil
}

// Run drives the simulation to completion, then merges every node's and
// the cluster's own per-lane buffers into the attached recorder (even on
// error, so partial runs keep their observations).
func (c *Cluster) Run() error {
	err := c.Eng.Run()
	for _, m := range c.nodes {
		m.flushObs()
	}
	if c.laneSet != nil {
		c.laneSet.Flush()
	}
	return err
}

// Go starts a process on the cluster's engine.
func (c *Cluster) Go(name string, body func(*sim.Proc)) *sim.Proc {
	return c.Eng.Go(name, body)
}
