// Package sim provides the deterministic discrete-event simulation kernel
// underlying pvcsim. It supplies a virtual clock, an event queue with
// stable FIFO tie-breaking, lightweight cooperative processes implemented
// on goroutines (only one process per lane ever runs at a time, so models
// need no locking), condition signals, and counting resources with FIFO
// queueing.
//
// The kernel is deliberately small: bandwidth-sharing pipes, devices, and
// interconnects are built on top of it in the fabric and gpusim packages.
//
// # Lanes
//
// An engine is partitioned into event lanes (see lanes.go). Lane 0 — the
// coordination lane — always exists and carries everything a freshly
// created engine schedules; additional lanes are created with NewLane and
// are assigned one per GPU stack by gpusim. Each lane owns its own event
// heap, virtual clock, and parked-process set, so independent lanes can
// be advanced by concurrent workers; all cross-lane interaction happens
// by migrating a process between lanes (Proc.MoveTo) through the
// deterministic mailboxes described in lanes.go. Code running on a lane
// (an event callback or a process) may only touch that lane's state:
// Engine.Schedule and Engine.Go always target lane 0 and must therefore
// be called from the host or from lane-0 context.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"pvcsim/internal/units"
)

// Engine is a discrete-event simulator instance. The zero value is not
// usable; call NewEngine.
type Engine struct {
	lanes   []*lane
	workers int
	tracer  func(t units.Seconds, what string)
	probe   WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// NewEngine returns a ready-to-use simulation engine with the clock at 0
// and a single lane (lane 0). The worker count defaults to the value set
// with SetDefaultWorkers (1 unless a CLI raised it via -lane-jobs).
func NewEngine() *Engine {
	e := &Engine{workers: DefaultWorkers()}
	e.addLane()
	return e
}

// Now returns the current virtual time: the furthest lane clock. With a
// single lane this is exactly the classic serial clock; after a
// multi-lane Run it is the makespan of the whole simulation.
func (e *Engine) Now() units.Seconds {
	now := e.lanes[0].now
	for _, l := range e.lanes[1:] {
		if l.now > now {
			now = l.now
		}
	}
	return now
}

// SetTracer installs a callback invoked for significant kernel events
// (process start/finish, resource waits). A nil tracer disables tracing.
// Under a multi-lane run, events from concurrent lanes are buffered and
// delivered in lane order at each epoch barrier, so the callback never
// runs concurrently with itself.
func (e *Engine) SetTracer(fn func(t units.Seconds, what string)) { e.tracer = fn }

// event is a scheduled callback.
type event struct {
	t   units.Seconds
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//pvclint:ignore floateq comparator tie-break must be exact: bit-equal timestamps fall through to seq, and a tolerance would destroy the strict weak ordering the heap requires
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Schedule queues fn to run after delay on lane 0. A negative delay is
// clamped to zero. Events at equal times run in scheduling order. It may
// be called from the host or from lane-0 context (an event callback or a
// process currently on lane 0); processes on other lanes use Proc.Hold.
func (e *Engine) Schedule(delay units.Seconds, fn func()) {
	e.lanes[0].schedule(delay, fn)
}

// Run processes events until every lane's queue drains and no migrations
// are in flight. It returns an error if processes remain blocked with no
// pending event to wake them (a model deadlock), which would otherwise
// manifest as silently missing results; the error names the signals and
// resources holding the waiters.
func (e *Engine) Run() error {
	if p := e.probe; p != nil {
		p.RunStart(len(e.lanes), e.workers)
	}
	if len(e.lanes) == 1 {
		e.runSerial()
	} else {
		e.runLanes(0, false)
	}
	if p := e.probe; p != nil {
		p.RunEnd()
	}
	return e.deadlockErr()
}

// runSerial is the classic single-heap event loop, taken when the engine
// has exactly one lane — byte-for-byte the pre-lane behavior. The whole
// drain is reported to the probe as a single lane-0 burst.
func (e *Engine) runSerial() {
	l := e.lanes[0]
	p := e.probe
	if p != nil {
		p.BurstStart(0)
	}
	n := 0
	for l.queue.Len() > 0 {
		ev := l.pop()
		l.now = ev.t
		ev.fn()
		l.recycle(ev)
		n++
	}
	if p != nil {
		p.BurstEnd(0, n)
	}
}

// deadlockErr builds the Run error when live processes remain: the lane
// totals plus a sorted breakdown of which signals/resources hold waiters.
// Blocker labels are built here, only when a deadlock is reported.
func (e *Engine) deadlockErr() error {
	live := 0
	for _, l := range e.lanes {
		live += l.live
	}
	if live == 0 {
		return nil
	}
	blocked := map[string]int{}
	for _, l := range e.lanes {
		for _, p := range l.blocked {
			blocked[p.blocker.blockerLabel()]++
		}
	}
	msg := fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked with empty event queue",
		e.Now(), live)
	if len(blocked) > 0 {
		names := make([]string, 0, len(blocked))
		for name := range blocked {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%d on %s", blocked[name], name))
		}
		msg += "; blocked: " + strings.Join(parts, ", ")
	}
	return fmt.Errorf("%s", msg)
}

// RunUntil processes events with timestamps <= deadline, then stops with
// every lane clock advanced to at least deadline (matching a serial run
// that idles up to the deadline when the queue empties early). Remaining
// events stay queued; Run or RunUntil may be called again. Like Run it
// returns a deadlock error when live processes remain blocked with no
// event anywhere to wake them.
func (e *Engine) RunUntil(deadline units.Seconds) error {
	p := e.probe
	if p != nil {
		p.RunStart(len(e.lanes), e.workers)
	}
	if len(e.lanes) == 1 {
		l := e.lanes[0]
		if p != nil {
			p.BurstStart(0)
		}
		n := 0
		for l.queue.Len() > 0 && l.queue[0].t <= deadline {
			ev := l.pop()
			l.now = ev.t
			ev.fn()
			l.recycle(ev)
			n++
		}
		if p != nil {
			p.BurstEnd(0, n)
		}
	} else {
		e.runLanes(deadline, true)
	}
	if p != nil {
		p.RunEnd()
	}
	for _, l := range e.lanes {
		if l.now < deadline {
			l.now = deadline
		}
	}
	if e.Pending() > 0 {
		return nil // future events may still wake the blocked
	}
	return e.deadlockErr()
}

// Pending reports the number of queued events across all lanes.
func (e *Engine) Pending() int {
	n := 0
	for _, l := range e.lanes {
		n += l.queue.Len()
	}
	return n
}

// Proc is a cooperative simulation process. Its methods may only be called
// from within the process's own body function.
type Proc struct {
	eng      *Engine
	name     string
	lane     *lane
	moveTo   LaneID  // final destination while a migration is in flight
	blocker  blocker // the signal or resource the process waits on; nil when not blocked
	blockIdx int     // the process's slot in its lane's blocked list
	resume   chan struct{}
	done     chan struct{}
}

// blocker is what a process can be blocked on: a Signal or a Resource.
// Its label names it in deadlock diagnostics.
type blocker interface{ blockerLabel() string }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time of the process's lane.
func (p *Proc) Now() units.Seconds { return p.lane.now }

// Lane returns the lane the process currently runs on.
func (p *Proc) Lane() LaneID { return p.lane.id }

// Go starts body as a new process on lane 0 at the current virtual time.
// The body runs cooperatively: it executes until it blocks in Hold, Wait,
// or Acquire, at which point control returns to the engine.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	return e.GoOn(0, name, body)
}

// GoOn starts body as a new process on the given lane. Starting a rank or
// device driver directly on the lane of the stack it works is what lets
// independent stacks burst in parallel from the first event.
func (e *Engine) GoOn(id LaneID, name string, body func(*Proc)) *Proc {
	l := e.lanes[id]
	p := &Proc{eng: e, name: name, lane: l, resume: make(chan struct{}), done: make(chan struct{})}
	l.live++
	l.schedule(0, func() {
		l.trace("start %s", name)
		go func() {
			body(p)
			fin := p.lane // the lane the body finished on
			fin.live--
			fin.trace("finish %s", name)
			close(p.done)
			fin.parked <- struct{}{}
		}()
		<-l.parked
	})
	return p
}

// yield transfers control from the process back to its lane and blocks
// until the lane resumes this process.
func (p *Proc) yield() {
	l := p.lane // the lane may change while parked (migration)
	l.parked <- struct{}{}
	<-p.resume
}

// wake resumes p from lane context and waits for it to park again. It
// must only be called from inside an event callback on p's lane.
func (l *lane) wake(p *Proc) {
	p.resume <- struct{}{}
	<-l.parked
}

// Hold suspends the process for d of virtual time on its current lane.
func (p *Proc) Hold(d units.Seconds) {
	l := p.lane
	l.schedule(d, func() { l.wake(p) })
	p.yield()
}

// Done returns a channel closed when the process body has returned. It is
// intended for host-side code inspecting a finished simulation, not for
// use inside processes.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Signal is a broadcast condition: processes Wait on it, and Fire wakes
// every current waiter at the time Fire is called. Later waiters need a
// later Fire. Fire may be called from process bodies or event callbacks
// on the signal's lane; Wait migrates the caller there first.
type Signal struct {
	eng     *Engine
	lane    LaneID
	name    string
	namer   Namer // builds the name on demand when set
	waiters []*Proc
}

// Namer supplies a signal's name on demand. Signals created per transfer
// use it so the name is built only when a deadlock report reads it.
type Namer interface{ SignalName() string }

// NewSignal creates an unnamed signal bound to the engine's lane 0.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// NewNamedSignal creates a signal whose name identifies it in deadlock
// diagnostics ("blocked: 2 on signal halo-ready").
func NewNamedSignal(e *Engine, name string) *Signal { return &Signal{eng: e, name: name} }

// SignalNamedBy returns a signal on lane 0 whose name namer builds only
// when a deadlock report needs it. It returns the signal by value so an
// owner can embed it and save an allocation; the owner must not copy it
// once processes wait on it.
func SignalNamedBy(e *Engine, namer Namer) Signal { return Signal{eng: e, namer: namer} }

// blockerLabel names the signal in deadlock diagnostics.
func (s *Signal) blockerLabel() string {
	name := s.name
	if s.namer != nil {
		name = s.namer.SignalName()
	}
	if name == "" {
		return "signal (unnamed)"
	}
	return "signal " + name
}

// Wait blocks the calling process until the next Fire, migrating it to
// the signal's lane first.
func (s *Signal) Wait(p *Proc) {
	p.MoveTo(s.lane)
	s.waiters = append(s.waiters, p)
	p.lane.block(p, s)
	p.yield()
}

// Fire schedules a wake-up, at the current time, for every process
// currently waiting. The waiter list keeps its backing array for the
// next round of waiters.
func (s *Signal) Fire() {
	l := s.eng.lanes[s.lane]
	for i, p := range s.waiters {
		wp := p
		l.unblock(wp)
		l.schedule(0, func() { l.wake(wp) })
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Waiting reports the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Resource is a counting resource (capacity >= 1) with FIFO queueing:
// Acquire blocks until a unit is free, Release frees one and wakes the
// head of the queue. It models exclusive or limited-concurrency hardware
// such as a PCIe controller's DMA engines. A resource lives on one lane
// (the stack queues live on their stack's lane); Acquire migrates the
// caller there, and Release/TryAcquire must be called from that lane.
type Resource struct {
	eng   *Engine
	lane  LaneID
	cap   int
	inUse int
	queue []*Proc
	name  string
}

// NewResource creates a resource with the given capacity (min 1) on
// lane 0.
func NewResource(e *Engine, name string, capacity int) *Resource {
	return NewResourceOn(e, 0, name, capacity)
}

// NewResourceOn creates a resource owned by the given lane.
func NewResourceOn(e *Engine, id LaneID, name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{eng: e, lane: id, cap: capacity, name: name}
}

// blockerLabel names the resource in deadlock diagnostics.
func (r *Resource) blockerLabel() string { return "resource " + r.name }

// Acquire obtains one unit, blocking the process in FIFO order if none is
// free. The caller is migrated to the resource's lane first.
func (r *Resource) Acquire(p *Proc) {
	p.MoveTo(r.lane)
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.lane.block(p, r)
	p.lane.trace("wait %s on %s (%d queued)", p.name, r.name, len(r.queue))
	p.yield()
	// When woken, the unit has already been transferred to us by Release.
}

// TryAcquire obtains a unit without blocking; it reports success. It must
// be called from the resource's lane (or from the host between runs).
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	return false
}

// Release frees one unit. If processes are queued, ownership passes
// directly to the queue head, preserving FIFO fairness. It must be called
// from the resource's lane.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		head := r.queue[0]
		r.queue = r.queue[1:]
		l := r.eng.lanes[r.lane]
		l.unblock(head)
		l.schedule(0, func() { l.wake(head) })
		return // unit transferred, inUse unchanged
	}
	r.inUse--
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Barrier makes n processes rendezvous: each calls Arrive and blocks until
// all n have arrived, at which point all are released at the same virtual
// time. It is reusable across generations, matching MPI_Barrier semantics
// in the mpirt package. The barrier lives on lane 0; Arrive migrates the
// caller there (rendezvous is by construction a cross-lane event).
type Barrier struct {
	eng     *Engine
	n       int
	arrived int
	sig     *Signal
}

// NewBarrier creates a barrier for n participants (min 1).
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{eng: e, n: n, sig: NewNamedSignal(e, "barrier")}
}

// Arrive blocks until all participants of the current generation arrive.
func (b *Barrier) Arrive(p *Proc) {
	p.MoveTo(b.sig.lane)
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.sig.Fire()
		return
	}
	b.sig.Wait(p)
}
