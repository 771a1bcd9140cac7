// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, cancellable timers, and the probability
// distributions used by the MemCA queueing and contention models.
//
// All randomness flows through an injected *rand.Rand so that every
// experiment is reproducible from a seed, and the engine never consults
// wall-clock time.
//
// The engine's hot path is allocation-free in steady state: the
// index-addressed 4-ary min-heap holds pointer-free (at, seq, id) keys,
// each event's callback and arg live in a generation-checked slot table
// under its id, cancellation handles are value types addressing that
// table, and freed slots are recycled through a free list. Model code
// that needs per-event context without allocating a closure uses the
// Actor scheduling path (ScheduleCall/AtCall).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Actor is the allocation-free callback path: instead of capturing state
// in a closure (one heap allocation per event), model code implements Act
// on a long-lived object and schedules it with ScheduleCall, passing the
// per-event context as arg. Pointer-shaped args (e.g. *Request) convert to
// `any` without allocating.
type Actor interface {
	// Act handles one fired event. arg is whatever was passed to
	// ScheduleCall/AtCall for this event.
	Act(arg any)
}

// Event is a cancellation handle for a scheduled callback, returned by
// Schedule and friends. It is a small value type: copy it freely. The zero
// Event is inert — Cancel and Canceled on it are no-ops — so a struct
// field holding "no event" needs no pointer or sentinel.
type Event struct {
	e   *Engine
	id  int32
	gen uint32
	at  time.Duration
}

// Time reports the virtual time at which the event fires (or would have
// fired, if canceled).
func (ev Event) Time() time.Duration { return ev.at }

// Cancel prevents the event's callback from running. Canceling an event
// that already fired or was already canceled is a no-op.
func (ev Event) Cancel() {
	if ev.e != nil {
		ev.e.cancel(ev.id, ev.gen)
	}
}

// Canceled reports whether Cancel was called on the event. The answer
// stays valid while the event is queued and through the pop that discards
// it; once the engine reuses the underlying slot for a later event the
// stale handle reports false.
func (ev Event) Canceled() bool {
	if ev.e == nil {
		return false
	}
	return ev.e.canceled(ev.id, ev.gen)
}

// key is one queued entry in the engine's heap: the (at, seq) order plus
// the id of the slot holding the callback. It is pointer-free, so sift
// loops move 24-byte values the garbage collector never scans.
type key struct {
	at  time.Duration
	seq uint64
	id  int32
}

// before is the heap order: (at, seq) ascending, so simultaneous events
// fire in scheduling order (deterministic FIFO tie-break). seq is unique,
// making the order total — heap arity therefore cannot change pop order.
func (a key) before(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is the table entry backing one event id: the callback (exactly one
// of fn and actor is set while queued) and the cancellation state. gen
// distinguishes reuses of the same id so stale handles are inert; every
// pop advances it, so a handle's gen matches only while its event is
// queued.
type slot struct {
	fn       func()
	actor    Actor
	arg      any
	gen      uint32
	canceled bool
	// lastCanceled remembers whether the generation that most recently
	// left the heap had been canceled, so Canceled() keeps answering
	// correctly on a handle whose event was just discarded.
	lastCanceled bool
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; a simulation runs on one goroutine and models concurrency
// through events, which is both faster and fully deterministic.
type Engine struct {
	now time.Duration
	seq uint64
	rng *rand.Rand

	// heap is an index-addressed 4-ary min-heap of keys. 4-ary beats
	// binary here: pops dominate (every push is eventually popped), and
	// the shallower tree trades a few extra comparisons per level for
	// half the levels and better cache locality on the key slice.
	heap  []key
	slots []slot
	free  []int32 // free slot ids, reused LIFO

	// processed counts events fired since construction; useful for
	// progress accounting and loop-guard tests.
	processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// NewEngineWithRand returns an engine using the provided random source.
// The engine takes ownership of rng; callers must not share it.
func NewEngineWithRand(rng *rand.Rand) *Engine {
	return &Engine{rng: rng}
}

// Now returns the current virtual time (time since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's random source. Model components should draw all
// randomness from it to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events still queued (including canceled
// events not yet discarded).
func (e *Engine) Pending() int { return len(e.heap) }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (fire at the current time, after already-queued events at that time).
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, fn, nil, nil)
}

// At queues fn to run at absolute virtual time t. Scheduling in the past is
// clamped to the present.
func (e *Engine) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return e.push(t, fn, nil, nil)
}

// ScheduleCall queues actor.Act(arg) to run after delay. Unlike Schedule
// it performs no heap allocation: the actor is a long-lived object and arg
// carries the per-event context (keep it pointer-shaped or a small integer
// to stay allocation-free across the `any` conversion).
//
//memca:hotpath
func (e *Engine) ScheduleCall(delay time.Duration, actor Actor, arg any) Event {
	if actor == nil {
		panic("sim: ScheduleCall called with nil actor")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, nil, actor, arg)
}

// AtCall queues actor.Act(arg) at absolute virtual time t, clamped to the
// present. It is the Actor counterpart of At.
//
//memca:hotpath
func (e *Engine) AtCall(t time.Duration, actor Actor, arg any) Event {
	if actor == nil {
		panic("sim: AtCall called with nil actor")
	}
	return e.push(t, nil, actor, arg)
}

// push allocates a slot, appends the event, and restores the heap order.
func (e *Engine) push(t time.Duration, fn func(), actor Actor, arg any) Event {
	if t < e.now {
		t = e.now
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.fn, s.actor, s.arg = fn, actor, arg
	e.heap = append(e.heap, key{at: t, seq: e.seq, id: id})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return Event{e: e, id: id, gen: s.gen, at: t}
}

// siftUp moves heap[i] toward the root until the order is restored.
func (e *Engine) siftUp(i int) {
	k := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = k
}

// siftDown moves heap[i] toward the leaves until the order is restored.
func (e *Engine) siftDown(i int) {
	k := e.heap[i]
	n := len(e.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.heap[c].before(e.heap[best]) {
				best = c
			}
		}
		if !e.heap[best].before(k) {
			break
		}
		e.heap[i] = e.heap[best]
		i = best
	}
	e.heap[i] = k
}

// popTop removes heap[0] and releases its slot, returning the slot as it
// stood before release (callback, arg and cancellation state). The table
// entry's fn/actor/arg are cleared so nothing outlives the event.
func (e *Engine) popTop() (key, slot) {
	top := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
	}
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	s := &e.slots[top.id]
	fired := *s
	s.fn, s.actor, s.arg = nil, nil, nil
	s.lastCanceled = s.canceled
	s.canceled = false
	s.gen++
	e.free = append(e.free, top.id)
	return top, fired
}

// cancel marks the event queued under (id, gen) as canceled; gen matches
// only while that event is queued. The key stays in the heap and is
// discarded when popped (lazy cancellation keeps the Pending semantics of
// the original engine).
func (e *Engine) cancel(id int32, gen uint32) {
	if int(id) < len(e.slots) && e.slots[id].gen == gen {
		e.slots[id].canceled = true
	}
}

// canceled reports the cancellation state for handle (id, gen).
func (e *Engine) canceled(id int32, gen uint32) bool {
	if int(id) >= len(e.slots) {
		return false
	}
	s := &e.slots[id]
	switch {
	case s.gen == gen:
		return s.canceled
	case s.gen == gen+1:
		return s.lastCanceled
	default:
		return false
	}
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when no runnable event remains.
//
//memca:hotpath
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		k, s := e.popTop()
		if s.canceled {
			continue
		}
		e.now = k.at
		e.processed++
		if s.fn != nil {
			s.fn()
		} else {
			s.actor.Act(s.arg)
		}
		return true
	}
	return false
}

// Run fires events until the clock would pass until, then sets the clock to
// exactly until. Events scheduled at until are fired.
func (e *Engine) Run(until time.Duration) {
	for len(e.heap) > 0 && e.heap[0].at <= until {
		if !e.Step() {
			break
		}
	}
	if e.now < until {
		e.now = until
	}
}

// RunChecked is Run with a periodic interruption hook: after every
// checkEvery fired events it calls check and stops early — without
// advancing the clock to until — when check returns a non-nil error,
// returning that error. The hook must not touch the simulation (it runs
// between events), so the event sequence up to an interruption is exactly
// the sequence Run would have produced; a nil check or zero checkEvery
// degrades to plain Run.
func (e *Engine) RunChecked(until time.Duration, checkEvery uint64, check func() error) error {
	if check == nil || checkEvery == 0 {
		e.Run(until)
		return nil
	}
	var fired uint64
	for len(e.heap) > 0 && e.heap[0].at <= until {
		if !e.Step() {
			break
		}
		fired++
		if fired%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunAll fires every queued event. It guards against runaway simulations
// with maxEvents; a zero maxEvents means no limit.
func (e *Engine) RunAll(maxEvents uint64) error {
	return e.RunAllChecked(maxEvents, 0, nil)
}

// RunAllChecked is RunAll with the same periodic interruption hook as
// RunChecked.
func (e *Engine) RunAllChecked(maxEvents, checkEvery uint64, check func() error) error {
	fired := uint64(0)
	for e.Step() {
		fired++
		if maxEvents > 0 && fired > maxEvents {
			return fmt.Errorf("sim: exceeded %d events at t=%v", maxEvents, e.now)
		}
		if check != nil && checkEvery > 0 && fired%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}
