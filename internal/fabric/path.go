package fabric

import (
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// Path is a composed multi-hop route through the network: the union of
// the constraint sets its flow must cross simultaneously (a fluid flow
// occupies every pipe of its route at once) plus the accumulated
// per-message latency of the traversal. It is how inter-node transfers
// are built: source NIC, switch-fabric pool, destination NIC.
type Path struct {
	Latency     units.Seconds
	Constraints []*Constraint
}

// Via appends constraints to the route.
func (p Path) Via(cs ...*Constraint) Path {
	p.Constraints = append(append([]*Constraint(nil), p.Constraints...), cs...)
	return p
}

// Plus adds traversal latency to the route.
func (p Path) Plus(lat units.Seconds) Path {
	p.Latency += lat
	return p
}

// StartPath begins a non-blocking transfer along a composed route,
// tagged with its binding resource; callers wait with Flow.Wait.
func (n *Network) StartPath(label Label, bound string, size units.Bytes, p Path) *Flow {
	return n.StartBound(label, bound, size, p.Latency, p.Constraints...)
}

// TransferPath moves size bytes along a composed route, blocking the
// calling process until completion.
func (n *Network) TransferPath(proc *sim.Proc, label Label, size units.Bytes, p Path) {
	n.Transfer(proc, label, size, p.Latency, p.Constraints...)
}
