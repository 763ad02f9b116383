// Package sim provides the deterministic discrete-event simulation kernel
// underlying pvcsim: a virtual clock, an event queue with stable FIFO
// tie-breaking, cooperative processes, condition signals, counting
// resources with FIFO queueing, and barriers.
//
// Each process runs on its own goroutine, but only one goroutine holds
// control at a time, so models need no locking. There is no scheduler
// goroutine: control passes by direct handoff. Whichever goroutine gives
// control up — RunUntil's caller on entry, a process blocking in Hold,
// Wait, Acquire or Arrive, or a process whose body returned — runs the
// event loop itself. It runs callback events inline until it pops an
// event that wakes a process. If that process is itself, it just returns;
// otherwise it sends once on the woken process's resume channel (a
// process starts its goroutine on its first wake instead) and parks.
// When no event remains at or before the deadline, the goroutine holding
// control sends on the engine's finished channel, where RunUntil's caller
// waits, and RunUntil returns. A wake costs one goroutine switch.
//
// A panic in a process body, or in an event callback the loop runs on a
// process goroutine, is recovered on that goroutine and re-raised in
// RunUntil's caller as a *ProcPanic carrying the value and the stack of
// the panic. Callers that contain panics (the runner turns them into
// errors) see every panic of a run on their own goroutine.
//
// The kernel is deliberately small and serial: one heap, one clock, one
// event loop. Bandwidth-sharing pipes, devices, and interconnects are
// built on top of it in the fabric and gpusim packages.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"

	"pvcsim/internal/units"
)

// Engine is a discrete-event simulator instance. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now      units.Seconds
	deadline units.Seconds // bound of the RunUntil in progress
	queue    []*event      // binary min-heap on (t, seq)
	seq      uint64
	ran      int           // events processed by the RunUntil in progress
	finished chan struct{} // control returns to RunUntil's caller
	panicked *ProcPanic    // set by a process goroutine before it returns control
	live     int           // processes started and not yet finished
	blocked  []*Proc       // processes blocked on a signal or resource
	free     []*event      // recycled event structs (allocation churn)
	tracer   func(t units.Seconds, what string)
	probe    WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// maxFreeEvents bounds the event free-list so an engine that once burst
// to millions of events does not pin them forever.
const maxFreeEvents = 256

// shrinkMinCap is the heap capacity below which shrinking is never
// attempted; tiny heaps are not worth reallocating.
const shrinkMinCap = 64

// NewEngine returns a ready-to-use simulation engine with the clock at 0.
func NewEngine() *Engine { return &Engine{finished: make(chan struct{})} }

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// SetTracer installs a callback invoked for significant kernel events
// (process start/finish, resource waits). A nil tracer disables tracing.
func (e *Engine) SetTracer(fn func(t units.Seconds, what string)) { e.tracer = fn }

// trace emits a tracer callback at the current time. Call sites check
// e.tracer first, so the variadic arguments are boxed only when a tracer
// is installed.
func (e *Engine) trace(format string, args ...any) {
	e.tracer(e.now, fmt.Sprintf(format, args...))
}

// event is a scheduled callback, or the wake-up of a process when proc
// is set.
type event struct {
	t    units.Seconds
	seq  uint64
	fn   func()
	proc *Proc
}

// before is the queue order: time, then admission sequence.
func (a *event) before(b *event) bool {
	//pvclint:ignore floateq comparator tie-break must be exact: bit-equal timestamps fall through to seq, and a tolerance would destroy the strict weak ordering the heap requires
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Schedule queues fn to run after delay. A negative delay is clamped to
// zero. Events at equal times run in scheduling order. Event structs are
// recycled from a bounded free-list.
func (e *Engine) Schedule(delay units.Seconds, fn func()) { e.schedule(delay, fn, nil) }

// schedule queues a callback event (fn) or a wake-up of p.
func (e *Engine) schedule(delay units.Seconds, fn func(), p *Proc) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	var ev *event
	reused := false
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		reused = true
	} else {
		ev = &event{}
	}
	if p := e.probe; p != nil {
		p.EventAlloc(reused)
	}
	ev.t, ev.seq, ev.fn, ev.proc = e.now+delay, e.seq, fn, p
	// Sift up from the new leaf.
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes the earliest event, shrinking the heap's backing array once
// it has drained to a quarter of its capacity.
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		// Sift the former last leaf down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.queue = q
	if cap(q) >= shrinkMinCap && n <= cap(q)/4 {
		e.queue = append(make([]*event, 0, cap(q)/2), q...)
		if p := e.probe; p != nil {
			p.HeapShrink()
		}
	}
	return top
}

// recycle returns a processed event to the free-list.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.proc = nil, nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// Run processes events until the queue drains. It returns an error if
// processes remain blocked with no pending event to wake them (a model
// deadlock), which would otherwise manifest as silently missing results;
// the error names the signals and resources holding the waiters.
func (e *Engine) Run() error { return e.RunUntil(units.Seconds(math.Inf(1))) }

// RunUntil processes events with timestamps <= deadline, then stops with
// the clock advanced to deadline when the queue empties early (a finite
// deadline only). Remaining events stay queued; Run or RunUntil may be
// called again. It returns a deadlock error when live processes remain
// blocked with no event left to wake them. A panic on a process
// goroutine is re-raised here as a *ProcPanic.
func (e *Engine) RunUntil(deadline units.Seconds) error {
	probe := e.probe
	if probe != nil {
		probe.RunStart()
	}
	e.deadline, e.ran = deadline, 0
	if p := e.next(); p != nil {
		e.pass(p)
		<-e.finished
		if pp := e.panicked; pp != nil {
			e.panicked = nil
			panic(pp)
		}
	}
	if probe != nil {
		probe.RunEnd(e.ran)
	}
	if e.now < deadline && !math.IsInf(float64(deadline), 1) {
		e.now = deadline
	}
	if len(e.queue) > 0 {
		return nil // future events may still wake the blocked
	}
	return e.deadlockErr()
}

// next is the event loop. It runs events in order, callbacks inline on
// the calling goroutine, until one wakes a process, and returns that
// process. It returns nil when no event remains at or before the
// deadline.
func (e *Engine) next() *Proc {
	for len(e.queue) > 0 && e.queue[0].t <= e.deadline {
		ev := e.pop()
		e.now = ev.t
		e.ran++
		if p := ev.proc; p != nil {
			e.recycle(ev)
			return p
		}
		ev.fn()
		e.recycle(ev)
	}
	return nil
}

// pass gives control to p, or back to RunUntil's caller when p is nil.
// It starts p's goroutine on p's first wake and resumes p on every later
// one. The caller parks (or exits) next.
func (e *Engine) pass(p *Proc) {
	switch {
	case p == nil:
		e.finished <- struct{}{}
	case p.body == nil:
		p.resume <- struct{}{}
	default:
		body := p.body
		p.body = nil
		if e.tracer != nil {
			e.trace("start %s", p.name)
		}
		go p.run(body)
	}
}

// deadlockErr builds the Run error when live processes remain: the total
// plus a sorted breakdown of which signals/resources hold waiters.
// Blocker labels are built here, only when a deadlock is reported.
func (e *Engine) deadlockErr() error {
	if e.live == 0 {
		return nil
	}
	blocked := map[string]int{}
	for _, p := range e.blocked {
		blocked[p.blocker.blockerLabel()]++
	}
	msg := fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked with empty event queue",
		e.now, e.live)
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

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// block records that p waits on b; unblock clears it. The blocked list
// backs the deadlock diagnostics. Removal swaps the last entry into the
// freed slot, so the list is unordered; deadlockErr sorts what it
// reports.
func (e *Engine) block(p *Proc, b blocker) {
	p.blocker, p.blockIdx = b, len(e.blocked)
	e.blocked = append(e.blocked, p)
}

func (e *Engine) unblock(p *Proc) {
	last := len(e.blocked) - 1
	moved := e.blocked[last]
	e.blocked[p.blockIdx] = moved
	moved.blockIdx = p.blockIdx
	e.blocked[last] = nil
	e.blocked = e.blocked[:last]
	p.blocker = nil
}

// Proc is a cooperative simulation process. Its methods may only be called
// from within the process's own body function.
type Proc struct {
	eng      *Engine
	name     string
	body     func(*Proc)   // set until the first wake starts the goroutine
	blocker  blocker       // the signal or resource the process waits on; nil when not blocked
	blockIdx int           // the process's slot in the engine's blocked list
	resume   chan struct{} // made when the process first parks
}

// blocker is what a process can be blocked on: a Signal or a Resource.
// Its label names it in deadlock diagnostics.
type blocker interface{ blockerLabel() string }

// ProcPanic is the value RunUntil panics with when a process body, or an
// event callback running on a process goroutine, panicked: the process,
// the panic value and the stack of the goroutine at the panic.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

// Error names the process and the panic value, then gives the stack.
func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Go starts body as a new process at the current virtual time. The body
// runs cooperatively: it executes until it blocks in Hold, Wait, or
// Acquire, at which point control passes on through the event loop.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.live++
	e.schedule(0, nil, p)
	return p
}

// run is the body of a process goroutine. When the body returns, the
// goroutine runs the event loop one last time to pass control on. A
// panic is recovered here and handed to RunUntil's caller.
func (p *Proc) run(body func(*Proc)) {
	e := p.eng
	defer func() {
		if v := recover(); v != nil {
			e.panicked = &ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()}
			e.finished <- struct{}{}
		}
	}()
	body(p)
	e.live--
	if e.tracer != nil {
		e.trace("finish %s", p.name)
	}
	e.pass(e.next())
}

// yield gives up control until an event wakes p. The calling goroutine
// runs the event loop itself; when the next wake-up is p's own, it
// returns without a goroutine switch.
func (p *Proc) yield() {
	e := p.eng
	q := e.next()
	if q == p {
		return
	}
	if p.resume == nil {
		p.resume = make(chan struct{})
	}
	e.pass(q)
	<-p.resume
}

// Hold suspends the process for d of virtual time.
func (p *Proc) Hold(d units.Seconds) {
	p.eng.schedule(d, nil, p)
	p.yield()
}

// Signal is a broadcast condition: processes Wait on it, and Fire wakes
// every current waiter at the time Fire is called. Later waiters need a
// later Fire. Fire may be called from process bodies or event callbacks.
type Signal struct {
	eng     *Engine
	name    string
	namer   Namer // builds the name on demand when set
	waiters []*Proc
	inline  [2]*Proc // backing array for the first two waiters
}

// Namer supplies a signal's name on demand. Signals created per transfer
// use it so the name is built only when a deadlock report reads it.
type Namer interface{ SignalName() string }

// NewSignal creates an unnamed signal.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// NewNamedSignal creates a signal whose name identifies it in deadlock
// diagnostics ("blocked: 2 on signal halo-ready").
func NewNamedSignal(e *Engine, name string) *Signal { return &Signal{eng: e, name: name} }

// SignalNamedBy returns a signal whose name namer builds only when a
// deadlock report needs it. It returns the signal by value so an owner
// can embed it and save an allocation; the owner must not copy it once
// processes wait on it.
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

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	if s.waiters == nil {
		s.waiters = s.inline[:0]
	}
	s.waiters = append(s.waiters, p)
	s.eng.block(p, s)
	p.yield()
}

// Fire schedules a wake-up, at the current time, for every process
// currently waiting. The waiter list keeps its backing array for the
// next round of waiters.
func (s *Signal) Fire() {
	e := s.eng
	for i, p := range s.waiters {
		e.unblock(p)
		e.schedule(0, nil, p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Waiting reports the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Resource is a counting resource (capacity >= 1) with FIFO queueing:
// Acquire blocks until a unit is free, Release frees one and wakes the
// head of the queue. It models exclusive or limited-concurrency hardware
// such as a PCIe controller's DMA engines.
type Resource struct {
	eng   *Engine
	cap   int
	inUse int
	queue []*Proc
	name  string
}

// NewResource creates a resource with the given capacity (min 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{eng: e, cap: capacity, name: name}
}

// blockerLabel names the resource in deadlock diagnostics.
func (r *Resource) blockerLabel() string { return "resource " + r.name }

// Acquire obtains one unit, blocking the process in FIFO order if none is
// free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	r.eng.block(p, r)
	if r.eng.tracer != nil {
		r.eng.trace("wait %s on %s (%d queued)", p.name, r.name, len(r.queue))
	}
	p.yield()
	// When woken, the unit has already been transferred to us by Release.
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	return false
}

// Release frees one unit. If processes are queued, ownership passes
// directly to the queue head, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		head := r.queue[0]
		r.queue = r.queue[1:]
		r.eng.unblock(head)
		r.eng.schedule(0, nil, head)
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
// in the mpirt package.
type Barrier struct {
	n       int
	arrived int
	sig     *Signal
}

// NewBarrier creates a barrier for n participants (min 1).
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{n: n, sig: NewNamedSignal(e, "barrier")}
}

// Arrive blocks until all participants of the current generation arrive.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.sig.Fire()
		return
	}
	b.sig.Wait(p)
}
