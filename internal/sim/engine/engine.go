//go:build go1.23

// The constraint raises this file's language version to go1.23 for
// iter.Pull (go vet rejects the call under go.mod's go 1.22). go.mod stays
// at 1.22 because the perfbench module pins that line and replaces this
// module, which then may not declare a newer one.

// Package engine implements a deterministic virtual-time discrete-event
// engine for architecture simulation.
//
// Simulated hardware agents (host threads, near-memory cores) are Actors:
// coroutines that run ordinary Go code but advance a virtual cycle clock
// through explicit Advance calls. Exactly one actor makes progress at any
// real-time instant and actors are dispatched in virtual-time order with
// deterministic FIFO tie-breaking, so a simulation with fixed inputs always
// produces identical interleavings and identical results — host garbage
// collection or OS scheduling can never perturb simulated time.
//
// Each actor's body runs inside an iter.Pull coroutine created at Spawn,
// and Run is the dispatch loop: it pops the earliest event and resumes that
// actor's coroutine, which runs until it parks (Advance past a pending
// event), blocks, or finishes, and then yields back to Run. A coroutine
// switch hands the thread straight to the target goroutine without going
// through the Go scheduler, so a dispatch costs two direct switches
// (Run -> actor -> Run) and no channel operations.
package engine

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/trace"
)

// Actor is a simulated execution agent with its own virtual clock.
// All methods must be called only from the actor's own body, while that
// actor is the one dispatched by the engine.
type Actor struct {
	// ID is the engine-assigned index, unique per engine.
	ID int
	// Name labels the actor in diagnostics.
	Name string
	// Daemon actors do not keep the simulation alive: once every
	// non-daemon actor has finished, Stopping reports true and daemons
	// are expected to return from their body promptly.
	Daemon bool

	eng *Engine
	now uint64
	// next resumes the actor's coroutine until it yields (parks or
	// blocks) or finishes (ok false); yield, called on the coroutine,
	// suspends it back to Run; stop unwinds a suspended coroutine. All
	// three come from iter.Pull at Spawn.
	next        func() (struct{}, bool)
	yield       func(struct{}) bool
	stop        func()
	finished    bool
	blocked     bool
	wakePending bool

	// Tracing state (engine tracer only): the trace track carrying this
	// actor's dispatch spans (-1 until first used) and the virtual time
	// the actor was last dispatched.
	track        int
	dispatchedAt uint64

	// Cycles accumulates the total virtual cycles this actor advanced.
	Cycles uint64
}

// Now returns the actor's current virtual time in cycles.
func (a *Actor) Now() uint64 { return a.now }

// Engine returns the engine that owns this actor.
func (a *Actor) Engine() *Engine { return a.eng }

// Advance moves the actor's virtual clock forward by c cycles, yielding to
// any other actor whose next event is earlier. Advance(0) is a pure yield:
// it lets same-cycle actors queued earlier run first.
//
// Fast path: if this actor would still be dispatched first — strictly
// earlier than every pending event (ties go to the earlier-queued event,
// so equality must park) — the round trip through Run is skipped
// entirely. The body below is kept small enough to inline into the
// machine layer's Step and memory-access call sites, so the common
// uncontended case (single runnable actor: build phases, 1-thread cells,
// an unblocker racing ahead of the actor it just woke) costs a heap-top
// comparison and no coroutine switch. Dispatch order is identical to the
// slow path.
func (a *Actor) Advance(c uint64) {
	a.now += c
	a.Cycles += c
	e := a.eng
	if len(e.pq) == 0 || a.now < e.pq[0].at {
		e.now = a.now
		return
	}
	a.repark()
}

// repark is Advance's slow path: queue the actor's continuation and yield
// to Run, which resumes the actor when that event is dispatched. Split
// from Advance to keep the fast path small.
func (a *Actor) repark() {
	e := a.eng
	if e.tr != nil {
		a.noteRun()
	}
	e.push(a)
	a.park()
}

// errAborted unwinds a parked actor's body when Run tears the engine down.
var errAborted = errors.New("engine: actor aborted")

// park suspends the actor's coroutine and returns once Run dispatches it
// again. A false yield means Run is tearing the engine down after a panic:
// the body is unwound (running its defers) instead of resumed.
func (a *Actor) park() {
	if !a.yield(struct{}{}) {
		panic(errAborted)
	}
}

// noteRun records the dispatch span that ends now: the actor's continuous
// run from its last dispatch to this park/finish. Called only when the
// engine tracer is set.
func (a *Actor) noteRun() {
	e := a.eng
	if a.track < 0 {
		a.track = e.tr.NewTrack("actor/" + a.Name)
	}
	e.tr.Span(a.track, trace.KindRun, a.dispatchedAt, a.now-a.dispatchedAt, uint32(a.ID))
}

// AdvanceTo moves the actor's clock to absolute virtual time t. It panics
// if t is in the actor's past.
func (a *Actor) AdvanceTo(t uint64) {
	if t < a.now {
		panic(fmt.Sprintf("engine: actor %q AdvanceTo(%d) before now=%d", a.Name, t, a.now))
	}
	a.Advance(t - a.now)
}

// Yield cedes control without consuming virtual time; actors scheduled for
// the same cycle run in FIFO order.
func (a *Actor) Yield() { a.Advance(0) }

// Stopping reports whether every non-daemon actor has finished. Daemon
// actors must poll it and return once it reports true.
func (a *Actor) Stopping() bool { return a.eng.stopping }

// Block parks the actor with no scheduled wake-up: it resumes only when
// another actor calls Unblock on it (modelling a hardware monitor/mwait on
// a doorbell) or when the engine enters the stopping state. Virtual time
// does not advance while blocked beyond the unblocker's wake time.
// A wake permit posted by Unblock while the target was not blocked —
// still running, or parked inside Advance — is consumed by the target's
// next Block, which then returns immediately without parking, so a wake
// racing with the waiter's final check is never lost and costs no
// dispatch.
func (a *Actor) Block() {
	if a.wakePending {
		a.wakePending = false
		return
	}
	e := a.eng
	if e.stopping {
		return
	}
	e.stBlocks.Inc()
	if e.tr != nil {
		a.noteRun()
	}
	a.blocked = true
	a.park()
}

// Unblock schedules blocked actor b to resume delay cycles after the
// caller's current time. If b is not blocked (running, or parked inside
// Advance), a wake permit is recorded for b's next Block instead. Must be
// called by the currently running actor.
func (a *Actor) Unblock(b *Actor, delay uint64) {
	a.eng.stUnblocks.Inc()
	if !b.blocked {
		b.wakePending = true
		return
	}
	b.blocked = false
	t := a.now + delay
	if t < b.now {
		t = b.now
	}
	b.now = t
	a.eng.push(b)
}

// Engine schedules actors in virtual-time order.
// The zero value is not usable; call New.
type Engine struct {
	now      uint64
	seq      uint64
	pq       eventHeap
	actors   []*Actor
	live     int // unfinished non-daemon actors
	liveAll  int // unfinished actors of any kind
	stopping bool
	running  bool

	// tr is the engine's event tracer; nil (the default) disables dispatch
	// tracing at the cost of one pointer comparison per park.
	tr *trace.Tracer

	stDispatches *metrics.Counter
	stSpawns     *metrics.Counter
	stBlocks     *metrics.Counter
	stUnblocks   *metrics.Counter
}

// New returns an empty engine at virtual time zero, instrumented into a
// private registry (replace it with AttachMetrics to share a machine-wide
// one).
func New() *Engine {
	e := &Engine{}
	e.AttachMetrics(metrics.NewRegistry())
	return e
}

// AttachMetrics re-registers the engine's scheduler counters
// (engine/dispatches, engine/spawns, engine/blocks, engine/unblocks) in
// reg. Call before Run; counts recorded earlier stay in the old registry.
func (e *Engine) AttachMetrics(reg *metrics.Registry) {
	e.stDispatches = reg.Counter("engine/dispatches")
	e.stSpawns = reg.Counter("engine/spawns")
	e.stBlocks = reg.Counter("engine/blocks")
	e.stUnblocks = reg.Counter("engine/unblocks")
}

// SetTracer attaches t as the engine's event tracer: every actor records a
// dispatch span (trace.KindRun) per continuous run on its own lazily
// created "actor/<name>" track. A nil t (the default) disables dispatch
// tracing. Call before Run.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tr = t }

// Now returns the engine's current virtual time (the dispatch time of the
// most recent event).
func (e *Engine) Now() uint64 { return e.now }

// Actors returns all actors ever spawned on the engine.
func (e *Engine) Actors() []*Actor { return e.actors }

// Spawn registers a new actor whose body runs starting at the spawner's
// current virtual time (or cycle 0 when called before Run). Spawn may be
// called before Run or from a running actor, never from outside while the
// engine runs. The body runs in a coroutine that starts at the actor's
// first dispatch.
func (e *Engine) Spawn(name string, daemon bool, body func(*Actor)) *Actor {
	a := &Actor{
		ID:     len(e.actors),
		Name:   name,
		Daemon: daemon,
		eng:    e,
		track:  -1,
	}
	a.next, a.stop = iter.Pull(func(yield func(struct{}) bool) {
		a.yield = yield
		body(a)
	})
	if e.running {
		// Inherit the current virtual time so causality is preserved.
		a.now = e.now
	}
	e.stSpawns.Inc()
	e.actors = append(e.actors, a)
	e.liveAll++
	if !daemon {
		e.live++
	}
	e.push(a)
	return a
}

// finish retires an actor whose body has returned, and once the last
// non-daemon actor is done, enters the stopping state.
func (e *Engine) finish(a *Actor) {
	a.finished = true
	if e.tr != nil {
		a.noteRun()
	}
	e.liveAll--
	if !a.Daemon {
		e.live--
		if e.live == 0 {
			e.stopping = true
			// Wake every blocked actor so daemons can observe
			// Stopping and exit.
			for _, b := range e.actors {
				if b.blocked && !b.finished {
					b.blocked = false
					if b.now < e.now {
						b.now = e.now
					}
					e.push(b)
				}
			}
		}
	}
}

// Run is the dispatch loop. It pops the earliest event, sets the engine
// clock to it and resumes that actor's coroutine until the actor yields
// or finishes, and repeats until every actor (daemons included) has
// finished. A deadlock — unfinished actors but no pending events, meaning
// an actor waits on a condition no other actor can ever satisfy — panics,
// as does a panic raised inside an actor's body (with its original
// value); both reach the caller of Run, which may recover them.
func (e *Engine) Run() {
	if e.running {
		panic("engine: Run called twice")
	}
	e.running = true
	if e.live == 0 {
		e.stopping = true
	}
	defer e.unwind()
	for e.liveAll > 0 {
		if len(e.pq) == 0 {
			panic("engine: deadlock: live actors but no pending events: " + e.liveNames())
		}
		ev := e.pop()
		a := ev.a
		e.now = ev.at
		e.stDispatches.Inc()
		if e.tr != nil {
			a.dispatchedAt = ev.at
		}
		if _, ok := a.next(); !ok {
			e.finish(a)
		}
	}
}

// unwind runs as Run returns. After a normal run every actor has finished
// and it does nothing; when Run panics it stops each unfinished actor's
// coroutine, so none outlives the engine. stop re-raises the errAborted
// that unwound the body, or whatever the body's deferred code panicked
// with instead; both are dropped, because re-raising one here would
// replace the panic Run is propagating.
func (e *Engine) unwind() {
	for _, a := range e.actors {
		if !a.finished {
			func() {
				defer func() { _ = recover() }()
				a.stop()
			}()
		}
	}
}

func (e *Engine) liveNames() string {
	var names []string
	for _, a := range e.actors {
		if !a.finished {
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type event struct {
	at  uint64
	seq uint64
	a   *Actor
}

func (e *Engine) push(a *Actor) {
	e.seq++
	e.pq.push(event{at: a.now, seq: e.seq, a: a})
}

func (e *Engine) pop() event { return e.pq.pop() }

// eventHeap is a binary min-heap ordered by (at, seq). A hand-rolled heap
// avoids container/heap interface dispatch on the hottest path in the
// simulator.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	// Zero the vacated slot so the heap's backing array does not pin the
	// moved event's *Actor (and its closed-over state) for the rest of
	// the run.
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
