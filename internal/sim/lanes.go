// Event lanes: the conservative parallel core of the simulation kernel.
//
// An engine is sharded into lanes. Each lane owns a private event heap,
// virtual clock, sequence counter, and parked-process set, so a worker
// can advance one lane with no locks at all. All cross-lane interaction
// is expressed as a process migration (Proc.MoveTo): the process parks on
// its source lane, a migration message is appended to the source lane's
// outbox, and the process resumes on the destination lane when the
// message is delivered. Migrations between two non-zero lanes relay
// through lane 0 — the coordination lane that owns the fabric network,
// the MPI runtime state, and the host memcpy pools — so a stack lane only
// ever receives work via lane 0.
//
// # Epoch rounds
//
// Run alternates epoch rounds with delivery barriers:
//
//  1. Deliver every pending outbox message, merged in (t, srcLane,
//     emission order) order, onto the destination heaps. Delivery order
//     is a total order independent of the worker count, which is what
//     keeps multi-worker runs byte-identical to serial ones.
//  2. Snapshot each lane's next event time nᵢ. Lane i's conservative
//     horizon for the round is Bᵢ = min over j≠i of nⱼ: no other lane can
//     emit a migration earlier than its own next event, and migrations
//     never travel backward in virtual time, so processing events with
//     t ≤ Bᵢ can never miss an inbound migration. Lanes whose nᵢ exceeds
//     their horizon idle this round; ties at the global minimum run
//     concurrently.
//  3. Each active lane bursts: it pops events while t ≤ min(Bᵢ, cᵢ),
//     where cᵢ — the emission cap — is the time of the lane's own first
//     outbox emission this round. The cap closes the lane's causal echo:
//     once the lane has emitted at cᵢ, a reply could arrive as early as
//     cᵢ, so the lane must not advance past it. Events at exactly the
//     bound still run; equal-time replies are delivered behind them
//     (local-before-remote is the canonical tie order on every lane).
//
// The rounds terminate: the lane holding the globally minimal event is
// always active and always processes at least that event. When every heap
// and outbox is empty the run is complete; live processes remaining at
// that point are a model deadlock, reported with their blocker names.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pvcsim/internal/units"
)

// LaneID identifies one event lane of an engine. Lane 0 is the
// coordination lane and always exists.
type LaneID int

// defaultWorkers is the process-wide default worker count applied to new
// engines, set from the -lane-jobs flag. 0 means "not set" → 1 worker.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the worker count every subsequently created
// engine starts with (the -lane-jobs CLI knob). n <= 0 resets to 1.
// Worker count never changes simulated results — only wall time — so a
// process-wide default is safe.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the current process-wide default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// AutoWorkers picks an effective lane worker count for one engine when
// the user passed -lane-jobs 0 (auto): the host parallelism divided by
// the cross-cell jobs already running, floored at 1.
func AutoWorkers(crossJobs int) int {
	if crossJobs < 1 {
		crossJobs = 1
	}
	n := runtime.GOMAXPROCS(0) / crossJobs
	if n < 1 {
		n = 1
	}
	return n
}

// lane is one shard of the engine: a private heap, clock, and
// parked-process channel, plus the outbox feeding the epoch mailboxes.
type lane struct {
	id      LaneID
	eng     *Engine
	now     units.Seconds
	queue   eventHeap
	seq     uint64
	parked  chan struct{}
	live    int     // processes currently homed on this lane
	blocked []*Proc // processes blocked on this lane's signals and resources

	outbox []message     // migrations emitted this round, in emission order
	capT   units.Seconds // emission cap: first outbox emission time this round

	free      []*event // recycled event structs (allocation churn)
	highWater int      // peak heap length, for shrink decisions
	traces    []laneTrace
}

// message is one mailbox entry: a process migrating between lanes at
// virtual time t. dst is the final destination; stack-to-stack moves are
// relayed through lane 0.
type message struct {
	t    units.Seconds
	src  LaneID
	dst  LaneID
	proc *Proc
}

// laneTrace is one buffered tracer callback from a concurrent burst.
type laneTrace struct {
	t    units.Seconds
	what string
}

// maxFreeEvents bounds the per-lane event free-list so an engine that
// once burst to millions of events does not pin them forever.
const maxFreeEvents = 256

// shrinkMinCap is the heap capacity below which shrinking is never
// attempted; tiny heaps are not worth reallocating.
const shrinkMinCap = 64

func (e *Engine) addLane() *lane {
	l := &lane{
		id:     LaneID(len(e.lanes)),
		eng:    e,
		parked: make(chan struct{}),
		capT:   units.Seconds(math.Inf(1)),
	}
	e.lanes = append(e.lanes, l)
	return l
}

// NewLane adds a lane to the engine and returns its id. Lanes must be
// created before Run — gpusim assigns one per GPU stack at machine build
// time.
func (e *Engine) NewLane() LaneID { return e.addLane().id }

// Lanes reports the number of lanes (always ≥ 1).
func (e *Engine) Lanes() int { return len(e.lanes) }

// LaneNow returns the given lane's clock. Code that runs pinned to one
// lane (the fabric network on lane 0) must use its own lane's clock, not
// Now(): another lane may be further ahead mid-round.
func (e *Engine) LaneNow(id LaneID) units.Seconds { return e.lanes[id].now }

// SetWorkers sets how many lanes may burst concurrently within one epoch
// round (n <= 0 selects 1). The worker count is wall-time only: round
// structure, event order, and results are identical for every value.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers reports the engine's lane worker count.
func (e *Engine) Workers() int { return e.workers }

// schedule queues fn on this lane after delay (negative clamped to 0),
// recycling event structs from the lane free-list.
func (l *lane) schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		delay = 0
	}
	l.seq++
	var ev *event
	reused := false
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		reused = true
	} else {
		ev = &event{}
	}
	if p := l.eng.probe; p != nil {
		p.EventAlloc(int(l.id), reused)
	}
	ev.t, ev.seq, ev.fn = l.now+delay, l.seq, fn
	heap.Push(&l.queue, ev)
	if len(l.queue) > l.highWater {
		l.highWater = len(l.queue)
	}
}

// pop removes the earliest event, shrinking the heap's backing array once
// it has drained well below its high-water mark.
func (l *lane) pop() *event {
	ev := heap.Pop(&l.queue).(*event)
	if cap(l.queue) >= shrinkMinCap && len(l.queue) <= cap(l.queue)/4 {
		shrunk := make(eventHeap, len(l.queue), cap(l.queue)/2)
		copy(shrunk, l.queue)
		l.queue = shrunk
		l.highWater = len(l.queue)
		if p := l.eng.probe; p != nil {
			p.HeapShrink(int(l.id))
		}
	}
	return ev
}

// recycle returns a processed event to the free-list.
func (l *lane) recycle(ev *event) {
	ev.fn = nil
	if len(l.free) < maxFreeEvents {
		l.free = append(l.free, ev)
	}
}

// block records that p waits on b; unblock clears it. Both run on the
// blocker's lane, which holds the blocked list behind the deadlock
// diagnostics. Removal swaps the last entry into the freed slot, so the
// list is unordered; deadlockErr sorts what it reports.
func (l *lane) block(p *Proc, b blocker) {
	p.blocker, p.blockIdx = b, len(l.blocked)
	l.blocked = append(l.blocked, p)
}

func (l *lane) unblock(p *Proc) {
	last := len(l.blocked) - 1
	moved := l.blocked[last]
	l.blocked[p.blockIdx] = moved
	moved.blockIdx = p.blockIdx
	l.blocked[last] = nil
	l.blocked = l.blocked[:last]
	p.blocker = nil
}

// trace emits a tracer callback. Single-lane engines call straight
// through (the classic behavior); multi-lane engines buffer per lane and
// flush in lane order at the next delivery barrier so the callback is
// never invoked concurrently.
func (l *lane) trace(format string, args ...any) {
	e := l.eng
	if e.tracer == nil {
		return
	}
	if len(e.lanes) == 1 {
		e.tracer(l.now, fmt.Sprintf(format, args...))
		return
	}
	l.traces = append(l.traces, laneTrace{t: l.now, what: fmt.Sprintf(format, args...)})
}

// MoveTo migrates the process to the given lane, parking it until the
// migration message is delivered at the destination. Moving to the
// current lane is free, so model code can call it unconditionally.
// Migrations between two non-zero lanes hop through lane 0.
func (p *Proc) MoveTo(id LaneID) {
	src := p.lane
	if src.id == id {
		return
	}
	p.moveTo = id
	hop := id
	if src.id != 0 && id != 0 {
		hop = 0 // stack→stack relays through the coordination lane
	}
	src.live--
	src.emit(message{t: src.now, src: src.id, dst: hop, proc: p})
	p.yield()
}

// emit appends a migration to the outbox and closes the lane's emission
// cap: having influenced another lane at t, this lane must not advance
// past t until the next round's horizon says it is safe.
func (l *lane) emit(m message) {
	l.outbox = append(l.outbox, m)
	if m.t < l.capT {
		l.capT = m.t
	}
	if p := l.eng.probe; p != nil {
		p.MsgEmitted(int(l.id))
	}
}

// deliver executes on the destination lane when a migration message
// arrives: either the process is home (resume it) or this is the lane-0
// hop of a stack-to-stack relay (forward it).
func (l *lane) deliver(p *Proc) {
	if p.moveTo != l.id {
		l.emit(message{t: l.now, src: l.id, dst: p.moveTo, proc: p})
		return
	}
	p.lane = l
	l.live++
	l.wake(p)
}

// runLanes is the multi-lane scheduler: epoch rounds separated by
// delivery barriers, as described in the package comment. With bounded
// set, no event beyond deadline is processed.
func (e *Engine) runLanes(deadline units.Seconds, bounded bool) {
	inf := units.Seconds(math.Inf(1))
	next := make([]units.Seconds, len(e.lanes))
	active := make([]*lane, 0, len(e.lanes))
	probe := e.probe
	var pool *lanePool
	defer func() {
		if pool != nil {
			pool.stop()
		}
	}()
	for {
		if probe != nil {
			probe.BarrierStart()
		}
		e.deliverRound()
		if probe != nil {
			probe.BarrierEnd()
		}
		globalMin := inf
		for i, l := range e.lanes {
			next[i] = inf
			if l.queue.Len() > 0 {
				next[i] = l.queue[0].t
			}
			if next[i] < globalMin {
				globalMin = next[i]
			}
		}
		if math.IsInf(float64(globalMin), 1) || (bounded && globalMin > deadline) {
			return
		}
		// Horizon Bᵢ = min over j≠i of nⱼ. With the global minimum and
		// second minimum in hand, every lane's horizon is one of the two.
		secondMin := inf
		minCount := 0
		for _, n := range next {
			//pvclint:ignore floateq identity test against the minimum just computed from these same values: bit-equal by construction, a tolerance would merge distinct event times
			if n == globalMin {
				minCount++
			} else if n < secondMin {
				secondMin = n
			}
		}
		active = active[:0]
		if probe != nil {
			probe.RoundStart()
		}
		for i, l := range e.lanes {
			bound := globalMin
			//pvclint:ignore floateq same identity test as the min-count scan above: the horizon must widen only for the exact unique-minimum lane
			if next[i] == globalMin && minCount == 1 {
				bound = secondMin
			}
			if bounded && bound > deadline {
				bound = deadline
			}
			if next[i] <= bound {
				l.capT = bound
				active = append(active, l)
			} else if probe != nil && !math.IsInf(float64(next[i]), 1) {
				// The lane holds events but the epoch horizon excluded it:
				// it stalls for the whole burst phase of this round.
				probe.LaneStalled(i)
			}
		}
		if e.workers > 1 && len(active) > 1 {
			if pool == nil {
				pool = newLanePool(e.workers, len(e.lanes))
			}
			pool.run(active)
		} else {
			for _, l := range active {
				l.burst()
			}
		}
		if probe != nil {
			probe.RoundEnd(len(active))
		}
	}
}

// burst advances one lane: pop and run events while t ≤ the cap (the
// round horizon, tightened to the first emission time by emit).
func (l *lane) burst() {
	p := l.eng.probe
	if p != nil {
		p.BurstStart(int(l.id))
	}
	n := 0
	for l.queue.Len() > 0 && l.queue[0].t <= l.capT {
		ev := l.pop()
		l.now = ev.t
		ev.fn()
		l.recycle(ev)
		n++
	}
	if p != nil {
		p.BurstEnd(int(l.id), n)
	}
}

// deliverRound is the epoch barrier body, run single-threaded between
// bursts: flush buffered tracer callbacks in lane order, then merge every
// outbox — sorted by (t, srcLane, emission order) — onto the destination
// heaps. Both merges iterate lanes in index order, never map order, so
// delivery is a fixed total order regardless of worker count.
func (e *Engine) deliverRound() {
	if e.tracer != nil {
		for _, l := range e.lanes {
			for _, tr := range l.traces {
				e.tracer(tr.t, tr.what)
			}
			l.traces = l.traces[:0]
		}
	}
	var inbox []message
	for _, l := range e.lanes {
		inbox = append(inbox, l.outbox...)
		l.outbox = l.outbox[:0]
		l.capT = units.Seconds(math.Inf(1))
	}
	if len(inbox) == 0 {
		return
	}
	// Stable keeps each source lane's emission order for equal (t, src).
	sort.SliceStable(inbox, func(i, j int) bool {
		//pvclint:ignore floateq mailbox merge tie-break must be exact: bit-equal timestamps fall through to the lane id, and a tolerance would reorder deliveries
		if inbox[i].t != inbox[j].t {
			return inbox[i].t < inbox[j].t
		}
		return inbox[i].src < inbox[j].src
	})
	for _, m := range inbox {
		dst := e.lanes[m.dst]
		p := m.proc
		at := m.t - dst.now // schedule is relative to the lane clock
		if at < 0 {
			// The destination has idled behind the message time; jump its
			// clock forward so the delivery lands at exactly m.t.
			dst.now = m.t
			at = 0
		}
		dst.schedule(at, func() { dst.deliver(p) })
	}
}

// lanePool is the persistent worker pool bursting active lanes
// concurrently within a round. Lanes share nothing while bursting, and
// the round barrier (drain of done) orders every burst before the next
// delivery, so the pool adds wall-time parallelism and nothing else.
type lanePool struct {
	work chan *lane
	done chan struct{}
	wg   sync.WaitGroup
}

func newLanePool(workers, lanes int) *lanePool {
	// done is buffered for every lane so a worker can always retire a
	// finished burst and pick up the next queued lane, even while the
	// dispatcher is still handing out work.
	p := &lanePool{work: make(chan *lane), done: make(chan struct{}, lanes)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for l := range p.work {
				l.burst()
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

func (p *lanePool) run(active []*lane) {
	for _, l := range active {
		p.work <- l
	}
	for range active {
		<-p.done
	}
}

func (p *lanePool) stop() {
	close(p.work)
	p.wg.Wait()
}
