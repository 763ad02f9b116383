// Package fabric models interconnects (PCIe, stack-to-stack MDFI, Xe-Link,
// NVLink, Infinity Fabric) as fluid-flow pipes on the simulation engine.
//
// A transfer is a flow that traverses one or more Constraints (bandwidth
// capacities). Concurrent flows on a constraint share it equally
// (processor sharing), and a flow's rate is the minimum share across its
// constraints. This single mechanism reproduces the paper's PCIe
// observations: per-direction link capacity, a sub-2× duplex constraint
// ("we observe only 1.4x bandwidth for bi- vs uni-directional"), and a
// host-side aggregate pool that makes full-node D2H scale at only 40%
// ("suggesting some contention on the host side").
package fabric

import (
	"fmt"
	"math"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// Constraint is one bandwidth capacity shared by the flows crossing it.
// A link's pipes share the link's name string and add their direction
// only when Name is called.
type Constraint struct {
	name     string
	capacity float64 // bytes per second
	flows    int32   // flows currently crossing it
	pipe     uint8   // index into pipeSuffix
}

// pipeSuffix holds the name suffixes of a standalone constraint (none)
// and of a link's three pipes.
var pipeSuffix = [4]string{"", "/fwd", "/duplex", "/rev"}

// Name returns the constraint's name.
func (c *Constraint) Name() string { return c.name + pipeSuffix[c.pipe] }

// Capacity returns the constraint's capacity.
func (c *Constraint) Capacity() units.ByteRate { return units.ByteRate(c.capacity) }

// ActiveFlows returns the number of flows currently crossing the
// constraint.
func (c *Constraint) ActiveFlows() int { return int(c.flows) }

// Flow is one in-flight transfer.
type Flow struct {
	label     Label
	bound     string // binding-resource tag carried onto the recorded span
	remaining float64
	rate      float64
	cs        []*Constraint
	done      sim.Signal
	finished  bool
	size      float64       // total bytes, for the recorded span
	start     units.Seconds // when the flow entered the network
}

// Bound returns the flow's binding-resource tag ("" when the flow is
// covered by an enclosing recorded span).
func (f *Flow) Bound() string { return f.bound }

// Finished reports whether the flow has completed.
func (f *Flow) Finished() bool { return f.finished }

// Remaining returns the bytes not yet delivered.
func (f *Flow) Remaining() units.Bytes { return units.Bytes(f.remaining) }

// Rate returns the flow's current share in bytes/s.
func (f *Flow) Rate() units.ByteRate { return units.ByteRate(f.rate) }

// Network manages flows over a set of constraints on one engine.
type Network struct {
	eng     *sim.Engine
	flows   []*Flow // live flows in admission order
	drained []*Flow // reschedule's scratch buffer, empty between calls
	lastT   units.Seconds
	gen     uint64      // invalidates stale completion checks
	spare   []*netEvent // recycled events
	epsilon float64
	obs     obs.Recorder
}

// netEvent is one of the network's own scheduled events: the admission
// of a flow whose latency has elapsed (flow set), or a check for the
// next flow completion. Each reschedule supersedes the previous check by
// bumping the network's generation, so a check whose generation is
// stale does nothing when it fires. Events are recycled once fired; fire
// is bound once, when the struct is first allocated.
type netEvent struct {
	n    *Network
	flow *Flow
	gen  uint64
	fire func()
}

// run is the event's callback.
func (ev *netEvent) run() {
	n, f, stale := ev.n, ev.flow, ev.gen != ev.n.gen
	ev.flow = nil
	n.spare = append(n.spare, ev)
	switch {
	case f != nil:
		n.admitPending(f)
	case !stale:
		n.advance()
		n.reschedule()
	}
}

// schedule queues a network event after delay, reusing a fired one when
// one is spare: the admission of f, or a completion check when f is nil.
func (n *Network) schedule(delay units.Seconds, f *Flow) {
	var ev *netEvent
	if k := len(n.spare); k > 0 {
		ev = n.spare[k-1]
		n.spare[k-1] = nil
		n.spare = n.spare[:k-1]
	} else {
		ev = &netEvent{n: n}
		ev.fire = ev.run
	}
	ev.flow = f
	if f == nil {
		n.gen++
		ev.gen = n.gen
	}
	n.eng.Schedule(delay, ev.fire)
}

// Observe attaches a recorder; every completed flow is emitted as a
// span and admitted flows are counted (fabric.flows, fabric.bytes).
func (n *Network) Observe(r obs.Recorder) { n.obs = r }

// admit registers a flow with the network, stamping its entry time and
// appending it to the admission-ordered flow set.
func (n *Network) admit(f *Flow) {
	f.start = n.eng.Now()
	for _, c := range f.cs {
		c.flows++
	}
	n.flows = append(n.flows, f)
	obs.Count(n.obs, "fabric.flows", 1)
	obs.Count(n.obs, "fabric.bytes", f.size)
}

// NewNetwork creates a flow network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, epsilon: 1e-6}
}

// NewConstraint registers a capacity. Non-positive capacities are
// rejected.
func (n *Network) NewConstraint(name string, cap units.ByteRate) (*Constraint, error) {
	if cap <= 0 {
		return nil, capacityErr(name)
	}
	return &Constraint{name: name, capacity: float64(cap)}, nil
}

func capacityErr(name string) error {
	return fmt.Errorf("fabric: constraint %q needs positive capacity", name)
}

// MustConstraint is NewConstraint for static topologies where a failure is
// a programming error.
func (n *Network) MustConstraint(name string, cap units.ByteRate) *Constraint {
	c, err := n.NewConstraint(name, cap)
	if err != nil {
		panic(err)
	}
	return c
}

// Transfer moves size bytes across the constraints, blocking the calling
// process until completion. A positive latency is charged up front (wire
// and software setup time), matching how a single message experiences it.
func (n *Network) Transfer(p *sim.Proc, label Label, size units.Bytes, latency units.Seconds, cs ...*Constraint) {
	if latency > 0 {
		p.Hold(latency)
	}
	if size <= 0 {
		return
	}
	f := n.start(label, "", size, cs)
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// Start begins a non-blocking transfer after an optional latency delay and
// returns its Flow; callers wait on it with Flow.Wait. It is the primitive
// under MPI_Isend-style overlapped communication in the mpirt package.
func (n *Network) Start(label Label, size units.Bytes, latency units.Seconds, cs ...*Constraint) *Flow {
	return n.StartBound(label, "", size, latency, cs...)
}

// StartBound is Start with a binding-resource tag: the flow's recorded
// span carries bound, attributing the transfer when no enclosing span
// covers it (the overlapped-communication path, where the flow span is
// the only record of the transfer).
func (n *Network) StartBound(label Label, bound string, size units.Bytes, latency units.Seconds, cs ...*Constraint) *Flow {
	if size <= 0 && latency <= 0 {
		f := n.newFlow(label, bound, 0, nil)
		f.finished = true
		return f
	}
	if latency > 0 {
		f := n.newFlow(label, bound, size, cs)
		n.schedule(latency, f)
		return f
	}
	return n.start(label, bound, size, cs)
}

// admitPending admits a flow whose latency has elapsed, or finishes it
// when it is latency-only.
func (n *Network) admitPending(f *Flow) {
	if f.remaining <= 0 {
		f.finished = true
		f.done.Fire()
		return
	}
	n.advance()
	n.admit(f)
	n.reschedule()
}

// Wait blocks the process until the flow completes.
func (f *Flow) Wait(p *sim.Proc) {
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// newFlow builds an unadmitted flow with its embedded completion
// signal. The signal is named after the flow's label, so deadlock
// diagnostics can report "blocked: 1 on signal flow h2d:0.0", but the
// name is built only if such a report asks for it.
func (n *Network) newFlow(label Label, bound string, size units.Bytes, cs []*Constraint) *Flow {
	f := &Flow{label: label, bound: bound, remaining: float64(size), size: float64(size), cs: cs}
	f.done = sim.SignalNamedBy(n.eng, (*flowDone)(f))
	return f
}

// flowDone is a Flow seen as the namer of its completion signal.
type flowDone Flow

// SignalName implements sim.Namer.
func (d *flowDone) SignalName() string { return "flow " + d.label.String() }

// start registers a flow and returns it; flows with no constraints
// complete instantly.
func (n *Network) start(label Label, bound string, size units.Bytes, cs []*Constraint) *Flow {
	f := n.newFlow(label, bound, size, cs)
	if len(cs) == 0 {
		f.finished = true
		return f
	}
	n.advance()
	n.admit(f)
	n.reschedule()
	return f
}

// advance progresses all active flows to the current time at their
// previously computed rates.
func (n *Network) advance() {
	now := n.eng.Now()
	//pvclint:ignore timeunit the fluid integrator multiplies seconds by bytes/second; the product leaves the time domain
	dt := float64(now - n.lastT)
	n.lastT = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes fair-share rates, completes any drained flows,
// and schedules the next completion event. Completions whose remaining
// time is below the virtual clock's floating-point resolution (which
// happens when microsecond transfers follow hour-long kernels) are
// drained immediately — otherwise the scheduled event could not advance
// the clock and the network would spin forever.
func (n *Network) reschedule() {
	for {
		// Complete drained flows first (may cascade: their departure
		// frees bandwidth for the rest, handled by the rate recompute).
		// One pass splits the flow set into live flows, kept in place,
		// and drained ones. The set is in admission order, so drained
		// flows finish in that order: simultaneous completions fire their
		// signals in a reproducible sequence, and downstream wakeups —
		// and any recorded trace — are identical run to run.
		live := n.flows[:0]
		for _, f := range n.flows {
			if f.remaining <= n.epsilon {
				n.drained = append(n.drained, f)
			} else {
				live = append(live, f)
			}
		}
		clear(n.flows[len(live):])
		n.flows = live
		for i, f := range n.drained {
			n.finish(f)
			n.drained[i] = nil
		}
		n.drained = n.drained[:0]
		if len(n.flows) == 0 {
			return
		}
		// Equal-share rates: share of each constraint divided by its
		// current flow count; a flow runs at its minimum share.
		soonest := math.Inf(1)
		for _, f := range n.flows {
			rate := math.Inf(1)
			for _, c := range f.cs {
				share := c.capacity / float64(c.flows)
				if share < rate {
					rate = share
				}
			}
			f.rate = rate
			if rate > 0 {
				if t := f.remaining / rate; t < soonest {
					soonest = t
				}
			}
		}
		if math.IsInf(soonest, 1) {
			return
		}
		//pvclint:ignore timeunit math.Nextafter probes the raw float grid of the clock; units.Seconds has no epsilon
		now := float64(n.eng.Now())
		resolution := math.Nextafter(now, math.Inf(1)) - now
		if soonest >= resolution {
			n.schedule(units.Seconds(soonest), nil)
			return
		}
		// Sub-resolution completions: drain them in place and loop.
		for _, f := range n.flows {
			if f.rate > 0 && f.remaining/f.rate < resolution {
				f.remaining = 0
			}
		}
	}
}

// finish completes a flow that reschedule has already taken out of the
// flow set. The span — and with it the label text — is built only when
// a recorder is attached.
func (n *Network) finish(f *Flow) {
	f.finished = true
	f.rate = 0
	for _, c := range f.cs {
		c.flows--
	}
	if n.obs != nil {
		n.obs.Span(obs.Span{
			Name: f.label.String(), Cat: "flow", GPU: -1, Stack: -1,
			Start: f.start, End: n.eng.Now(), Bytes: units.Bytes(f.size),
			Bound: f.bound,
		})
	}
	f.done.Fire()
}

// Active returns the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

// Link bundles the directed pipes and shared duplex constraint of one
// physical interconnect port, built from a hw.LinkSpec. Transfers in one
// direction see the per-direction sustained capacity; simultaneous
// opposite-direction transfers are additionally limited by the duplex
// constraint (DuplexFactor × sustained). The constraints live inside the
// Link and take their names from it, so building one is one allocation.
type Link struct {
	Name    string
	Fwd     *Constraint // e.g. host-to-device
	Rev     *Constraint // e.g. device-to-host
	Duplex  *Constraint
	Latency units.Seconds
	pipes   [3]Constraint  // fwd, duplex, rev, in pipeSuffix order
	dirs    [3]*Constraint // Fwd, Duplex, Rev: each direction is a two-element window
}

// NewLink constructs the pipes for one port.
func NewLink(n *Network, name string, sustained units.ByteRate, duplexFactor float64, latency units.Seconds) *Link {
	if duplexFactor <= 0 {
		duplexFactor = 2
	}
	l := &Link{Name: name, Latency: latency}
	caps := [3]units.ByteRate{sustained, units.ByteRate(float64(sustained) * duplexFactor), sustained}
	for i, c := range caps {
		l.pipes[i] = Constraint{name: name, capacity: float64(c), pipe: uint8(i + 1)}
		if c <= 0 {
			panic(capacityErr(l.pipes[i].Name()))
		}
		l.dirs[i] = &l.pipes[i]
	}
	l.Fwd, l.Duplex, l.Rev = l.dirs[0], l.dirs[1], l.dirs[2]
	return l
}

// Dir selects the constraint set for one direction of the link: the
// directional pipe plus the shared duplex cap. The set is a window on
// the link's own array with no spare capacity, so it costs no allocation
// and an append to it copies instead of overwriting the link.
func (l *Link) Dir(reverse bool) []*Constraint {
	if reverse {
		return l.dirs[1:3:3]
	}
	return l.dirs[0:2:2]
}
