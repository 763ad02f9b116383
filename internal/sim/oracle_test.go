package sim

import (
	"container/heap"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pvcsim/internal/units"
)

// The goroutine round-trip engine this package ran on before the direct
// handoff, kept as a test oracle. A central event loop pops each event;
// a wake-up sends on the process's resume channel and then parks on the
// engine until the process yields back. The handoff engine must produce
// the same (time, process, action) sequence, tracer lines included, and
// the same deadlock text for every program.

type oracleEngine struct {
	now     units.Seconds
	queue   oracleHeap
	seq     uint64
	parked  chan struct{}
	live    int
	blocked []*oracleProc
	tracer  func(t units.Seconds, what string)
}

type oracleEvent struct {
	t   units.Seconds
	seq uint64
	fn  func()
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	//pvclint:ignore floateq comparator tie-break must be exact, as in the engine under test
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func newOracleEngine() *oracleEngine { return &oracleEngine{parked: make(chan struct{})} }

func (e *oracleEngine) trace(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, fmt.Sprintf(format, args...))
	}
}

func (e *oracleEngine) Schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.queue, &oracleEvent{t: e.now + delay, seq: e.seq, fn: fn})
}

func (e *oracleEngine) RunUntil(deadline units.Seconds) error {
	for len(e.queue) > 0 && e.queue[0].t <= deadline {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		e.now = ev.t
		ev.fn()
	}
	if e.now < deadline && !math.IsInf(float64(deadline), 1) {
		e.now = deadline
	}
	if len(e.queue) > 0 {
		return nil
	}
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

func (e *oracleEngine) block(p *oracleProc, b blocker) {
	p.blocker, p.blockIdx = b, len(e.blocked)
	e.blocked = append(e.blocked, p)
}

func (e *oracleEngine) unblock(p *oracleProc) {
	last := len(e.blocked) - 1
	moved := e.blocked[last]
	e.blocked[p.blockIdx] = moved
	moved.blockIdx = p.blockIdx
	e.blocked[last] = nil
	e.blocked = e.blocked[:last]
	p.blocker = nil
}

type oracleProc struct {
	eng      *oracleEngine
	name     string
	blocker  blocker
	blockIdx int
	resume   chan struct{}
}

func (e *oracleEngine) Go(name string, body func(*oracleProc)) {
	p := &oracleProc{eng: e, name: name, resume: make(chan struct{})}
	e.live++
	e.Schedule(0, func() {
		e.trace("start %s", name)
		go func() {
			body(p)
			e.live--
			e.trace("finish %s", name)
			e.parked <- struct{}{}
		}()
		<-e.parked
	})
}

func (p *oracleProc) yield() {
	p.eng.parked <- struct{}{}
	<-p.resume
}

func (e *oracleEngine) wake(p *oracleProc) {
	p.resume <- struct{}{}
	<-e.parked
}

func (p *oracleProc) Hold(d units.Seconds) {
	e := p.eng
	e.Schedule(d, func() { e.wake(p) })
	p.yield()
}

type oracleSignal struct {
	eng     *oracleEngine
	name    string
	waiters []*oracleProc
}

func (s *oracleSignal) blockerLabel() string { return "signal " + s.name }

func (s *oracleSignal) Wait(p *oracleProc) {
	s.waiters = append(s.waiters, p)
	s.eng.block(p, s)
	p.yield()
}

func (s *oracleSignal) Fire() {
	e := s.eng
	for _, p := range s.waiters {
		wp := p
		e.unblock(wp)
		e.Schedule(0, func() { e.wake(wp) })
	}
	s.waiters = s.waiters[:0]
}

type oracleResource struct {
	eng   *oracleEngine
	cap   int
	inUse int
	queue []*oracleProc
	name  string
}

func (r *oracleResource) blockerLabel() string { return "resource " + r.name }

func (r *oracleResource) Acquire(p *oracleProc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	r.eng.block(p, r)
	r.eng.trace("wait %s on %s (%d queued)", p.name, r.name, len(r.queue))
	p.yield()
}

func (r *oracleResource) Release() {
	if len(r.queue) > 0 {
		head := r.queue[0]
		r.queue = r.queue[1:]
		e := r.eng
		e.unblock(head)
		e.Schedule(0, func() { e.wake(head) })
		return
	}
	r.inUse--
}

type oracleBarrier struct {
	n       int
	arrived int
	sig     *oracleSignal
}

func (b *oracleBarrier) Arrive(p *oracleProc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.sig.Fire()
		return
	}
	b.sig.Wait(p)
}

// A program is a random model run on both engines: processes executing
// op lists over a few shared signals, resources and barriers, with host
// callbacks, nested process starts and a RunUntil cut before the final
// Run.
const (
	numSignals   = 3
	numResources = 2
	numBarriers  = 2
)

type opKind int

const (
	opHold     opKind = iota // whole-unit hold, zero included
	opHoldFrac               // hold on a sevenths grid
	opWait
	opFire
	opAcquire
	opRelease // releases a unit the process holds; a no-op otherwise
	opArrive
	opAfter // schedules a callback that fires a signal
	opSpawn // starts a child process
	numOpKinds
)

type op struct {
	kind  opKind
	arg   int
	child []op
}

type program struct {
	procs   [][]op
	caps    [numResources]int
	parties [numBarriers]int
	kicks   []int // host callbacks before the run: delay*numSignals + signal
	cut     units.Seconds
}

// byteSource reads a program's choices from fuzz input; it yields zeros
// once the input is exhausted, which ends every list.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return int(v)
}

func genProgram(data []byte) program {
	src := &byteSource{b: data}
	var pr program
	for i := range pr.caps {
		pr.caps[i] = 1 + src.next()%2
	}
	for i := range pr.parties {
		pr.parties[i] = 1 + src.next()%4
	}
	pr.cut = units.Seconds(src.next() % 8)
	for n := src.next() % 3; n > 0; n-- {
		pr.kicks = append(pr.kicks, src.next())
	}
	for n := 1 + src.next()%5; n > 0; n-- {
		pr.procs = append(pr.procs, genOps(src, 1))
	}
	return pr
}

func genOps(src *byteSource, depth int) []op {
	n := src.next() % 10
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := op{kind: opKind(src.next() % int(numOpKinds)), arg: src.next()}
		if o.kind == opSpawn {
			if depth == 0 {
				o.kind = opHold
			} else {
				o.child = genOps(src, depth-1)
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// model is one engine with a program's shared objects. Process handles
// are *Proc or *oracleProc.
type model interface {
	now() units.Seconds
	spawn(name string, body func(p any))
	after(d units.Seconds, fn func())
	hold(p any, d units.Seconds)
	wait(p any, sig int)
	fire(sig int)
	acquire(p any, res int)
	release(res int)
	arrive(p any, bar int)
	runUntil(t units.Seconds) error
	setTracer(fn func(units.Seconds, string))
	// drain wakes every blocked process, round after round, until none
	// is live, so no goroutine outlives the check.
	drain()
}

type engineModel struct {
	e    *Engine
	sigs [numSignals]*Signal
	res  [numResources]*Resource
	bars [numBarriers]*Barrier
}

func newEngineModel(pr program) *engineModel {
	m := &engineModel{e: NewEngine()}
	for i := range m.sigs {
		m.sigs[i] = NewNamedSignal(m.e, fmt.Sprintf("s%d", i))
	}
	for i := range m.res {
		m.res[i] = NewResource(m.e, fmt.Sprintf("r%d", i), pr.caps[i])
	}
	for i := range m.bars {
		m.bars[i] = NewBarrier(m.e, pr.parties[i])
	}
	return m
}

func (m *engineModel) now() units.Seconds { return m.e.Now() }
func (m *engineModel) spawn(name string, body func(any)) {
	m.e.Go(name, func(p *Proc) { body(p) })
}
func (m *engineModel) after(d units.Seconds, fn func())         { m.e.Schedule(d, fn) }
func (m *engineModel) hold(p any, d units.Seconds)              { p.(*Proc).Hold(d) }
func (m *engineModel) wait(p any, sig int)                      { m.sigs[sig].Wait(p.(*Proc)) }
func (m *engineModel) fire(sig int)                             { m.sigs[sig].Fire() }
func (m *engineModel) acquire(p any, res int)                   { m.res[res].Acquire(p.(*Proc)) }
func (m *engineModel) release(res int)                          { m.res[res].Release() }
func (m *engineModel) arrive(p any, bar int)                    { m.bars[bar].Arrive(p.(*Proc)) }
func (m *engineModel) runUntil(t units.Seconds) error           { return m.e.RunUntil(t) }
func (m *engineModel) setTracer(fn func(units.Seconds, string)) { m.e.SetTracer(fn) }

func (m *engineModel) drain() {
	for m.e.live > 0 {
		for _, s := range m.sigs {
			s.Fire()
		}
		for _, b := range m.bars {
			b.arrived = 0
			b.sig.Fire()
		}
		for _, r := range m.res {
			for r.QueueLen() > 0 {
				r.Release()
			}
		}
		_ = m.e.Run()
	}
}

type oracleModel struct {
	e    *oracleEngine
	sigs [numSignals]*oracleSignal
	res  [numResources]*oracleResource
	bars [numBarriers]*oracleBarrier
}

func newOracleModel(pr program) *oracleModel {
	m := &oracleModel{e: newOracleEngine()}
	for i := range m.sigs {
		m.sigs[i] = &oracleSignal{eng: m.e, name: fmt.Sprintf("s%d", i)}
	}
	for i := range m.res {
		m.res[i] = &oracleResource{eng: m.e, cap: pr.caps[i], name: fmt.Sprintf("r%d", i)}
	}
	for i := range m.bars {
		m.bars[i] = &oracleBarrier{n: pr.parties[i], sig: &oracleSignal{eng: m.e, name: "barrier"}}
	}
	return m
}

func (m *oracleModel) now() units.Seconds { return m.e.now }
func (m *oracleModel) spawn(name string, body func(any)) {
	m.e.Go(name, func(p *oracleProc) { body(p) })
}
func (m *oracleModel) after(d units.Seconds, fn func())         { m.e.Schedule(d, fn) }
func (m *oracleModel) hold(p any, d units.Seconds)              { p.(*oracleProc).Hold(d) }
func (m *oracleModel) wait(p any, sig int)                      { m.sigs[sig].Wait(p.(*oracleProc)) }
func (m *oracleModel) fire(sig int)                             { m.sigs[sig].Fire() }
func (m *oracleModel) acquire(p any, res int)                   { m.res[res].Acquire(p.(*oracleProc)) }
func (m *oracleModel) release(res int)                          { m.res[res].Release() }
func (m *oracleModel) arrive(p any, bar int)                    { m.bars[bar].Arrive(p.(*oracleProc)) }
func (m *oracleModel) runUntil(t units.Seconds) error           { return m.e.RunUntil(t) }
func (m *oracleModel) setTracer(fn func(units.Seconds, string)) { m.e.tracer = fn }

func (m *oracleModel) drain() {
	for m.e.live > 0 {
		for _, s := range m.sigs {
			s.Fire()
		}
		for _, b := range m.bars {
			b.arrived = 0
			b.sig.Fire()
		}
		for _, r := range m.res {
			for len(r.queue) > 0 {
				r.Release()
			}
		}
		_ = m.e.RunUntil(units.Seconds(math.Inf(1)))
	}
}

// interp runs a program on a model and logs every action with its
// virtual time. Once draining is set, processes stop at their next op
// and nothing more is logged.
type interp struct {
	m        model
	log      []string
	draining bool
}

func (in *interp) record(format string, args ...any) {
	if !in.draining {
		in.log = append(in.log, fmt.Sprintf("%v ", in.m.now())+fmt.Sprintf(format, args...))
	}
}

func (in *interp) body(name string, ops []op) func(any) {
	return func(p any) {
		var held [numResources]int
		for i, o := range ops {
			if in.draining {
				return
			}
			in.record("%s op%d kind%d arg%d", name, i, o.kind, o.arg)
			switch o.kind {
			case opHold:
				in.m.hold(p, units.Seconds(o.arg%4))
			case opHoldFrac:
				in.m.hold(p, units.Seconds(o.arg)/7)
			case opWait:
				in.m.wait(p, o.arg%numSignals)
			case opFire:
				in.m.fire(o.arg % numSignals)
			case opAcquire:
				r := o.arg % numResources
				in.m.acquire(p, r)
				held[r]++
			case opRelease:
				if r := o.arg % numResources; held[r] > 0 {
					held[r]--
					in.m.release(r)
				}
			case opArrive:
				in.m.arrive(p, o.arg%numBarriers)
			case opAfter:
				in.kick(o.arg)
			case opSpawn:
				child := fmt.Sprintf("%s.%d", name, i)
				in.m.spawn(child, in.body(child, o.child))
			}
		}
		in.record("%s end", name)
	}
}

// kick schedules a callback that fires a signal; arg encodes the delay
// and the signal.
func (in *interp) kick(arg int) {
	sig := arg % numSignals
	in.m.after(units.Seconds(arg/numSignals%3), func() {
		in.record("callback fires s%d", sig)
		in.m.fire(sig)
	})
}

func runProgram(m model, pr program) []string {
	in := &interp{m: m}
	m.setTracer(func(ts units.Seconds, what string) {
		if !in.draining {
			in.log = append(in.log, fmt.Sprintf("%v trace %s", ts, what))
		}
	})
	for _, k := range pr.kicks {
		in.kick(k)
	}
	for i, ops := range pr.procs {
		name := fmt.Sprintf("p%d", i)
		m.spawn(name, in.body(name, ops))
	}
	err := m.runUntil(pr.cut)
	in.record("RunUntil(%v): %v", pr.cut, err)
	err = m.runUntil(units.Seconds(math.Inf(1)))
	in.record("Run: %v", err)
	in.draining = true
	m.drain()
	return in.log
}

// checkOracle runs the program data encodes on both engines, fails on
// the first line where their logs differ, and returns the log.
func checkOracle(t *testing.T, data []byte) []string {
	t.Helper()
	pr := genProgram(data)
	got := runProgram(newEngineModel(pr), pr)
	want := runProgram(newOracleModel(pr), pr)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("program %s: line %d differs\n got: %q\nwant: %q\nengine log:\n%s\noracle log:\n%s",
				hex.EncodeToString(data), i, g, w, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	return got
}

// Property: the handoff engine and the round-trip oracle agree on random
// programs.
func TestEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	deadlocks := 0
	for i := 0; i < 1500; i++ {
		data := make([]byte, 8+rng.Intn(96))
		rng.Read(data)
		if log := checkOracle(t, data); strings.Contains(log[len(log)-1], "deadlock") {
			deadlocks++
		}
	}
	// The programs must exercise both endings.
	if deadlocks == 0 || deadlocks == 1500 {
		t.Errorf("%d of 1500 programs deadlocked; the generator covers only one ending", deadlocks)
	}
}

// FuzzEngineOracle compares the two engines on fuzzer-built programs.
func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 3, 3, 0, 5, 7, 1, 2, 2, 9, 3, 4, 6, 8, 5, 6, 6, 6, 1})
	f.Add([]byte{1, 1, 3, 3, 5, 1, 7, 4, 6, 4, 1, 4, 1, 5, 0, 6, 0, 6, 1, 5, 8, 2, 3, 8, 4})
	f.Add([]byte("handoff engine against the round-trip oracle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkOracle(t, data)
	})
}
