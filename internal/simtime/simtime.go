// Package simtime provides a deterministic discrete-event simulation
// engine. All cluster components in this repository are driven by a
// shared virtual clock so that experiments are reproducible and run in
// milliseconds of wall time regardless of how many simulated hours they
// cover.
//
// Virtual time is a time.Duration measured from the start of the
// simulation (epoch zero). Events scheduled for the same instant fire
// in the order they were scheduled, which makes every run with the same
// inputs bit-for-bit identical.
//
// The per-event path allocates nothing in steady state. The engine
// recycles its events through a free list once they fire or are
// reaped, and a Timer is a small value that carries the sequence
// number of the event it was issued for, so a handle kept past its
// event can never cancel the event's next use. Chain streams a long,
// time-ordered series of events (a job trace's arrivals) one link at
// a time while keeping the order they would have had if all were
// scheduled up front. The engine keeps no ledger of outstanding work:
// a run that lasts until its components go quiet is RunWhile over the
// caller's own predicate, and periodic tickers (Every) are ordinary
// events.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. The callback runs with the engine's
// clock set to exactly the event's due time. An event is dead from the
// moment it fires or is stopped; the engine reuses it for a later
// schedule once it leaves the queue.
type event struct {
	due time.Duration
	seq uint64
	fn  func()
	// call(arg) runs instead of fn for events scheduled by AfterArg.
	call func(any)
	arg  any
	dead bool
}

// Timer is a handle to a scheduled event that can be cancelled. It is
// a value: the zero Timer stops nothing, and a copy acts like the
// original.
type Timer struct {
	ev  *event
	seq uint64 // the event's seq when the timer was issued
	eng *Engine
}

// Stop cancels the timer. It reports whether the timer was still
// pending; a false return means the callback already ran (or the timer
// was stopped earlier). The cancelled event leaves Pending() at once,
// while the queue slot itself is reaped lazily at fire time. The seq
// check makes a timer whose event fired, was reaped and was reused for
// a later schedule a no-op: seqs are never issued twice.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.dead {
		return false
	}
	ev.kill()
	t.eng.live--
	return true
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run inside engine
// callbacks, mirroring the single-box deployment of the paper's
// daemons. The queue is an indexed calendar/bucket queue (see
// calendar.go) with the exact (due, seq) pop order of a flat min-heap.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   *calendar
	free    []*event // dead events out of the queue, ready for reuse
	stopped bool
	ran     uint64
	live    int // live events still queued (cancelled ones excluded)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{queue: newCalendar()}
}

// Reset returns the engine to the state NewEngine leaves it in, so
// that one engine can run many simulations in turn: the clock, the
// callback count and the live count restart at zero, and every queued
// event is marked dead and dropped. The bucket array is kept but
// zeroed, and the far heap and the free list are dropped, so what a
// run allocates never depends on the runs before it. Seqs keep
// counting: a Timer, Ticker or Chain issued before the Reset can
// neither fire nor stop anything after it, and pop order depends only
// on relative (due, seq). Call it between runs, not from a callback.
func (e *Engine) Reset() {
	e.queue.reset()
	e.now, e.ran, e.live, e.stopped = 0, 0, 0, false
	e.free = nil
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// EventsRun returns the number of callbacks executed so far, which is
// useful for progress assertions in tests.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of live events still queued. Cancelled
// timers leave the count at Stop time, not at their original fire
// time, even though their queue slots are reaped lazily. An unfinished
// Chain counts as one event, however many links it has left: only its
// next link is queued.
func (e *Engine) Pending() int { return e.live }

// At schedules fn at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it indicates a logic error in the caller, and
// silently reordering time would destroy determinism.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	seq := e.seq
	e.seq++
	return Timer{ev: e.push(event{due: t, seq: seq, fn: fn}), seq: seq, eng: e}
}

// push queues x (its due time, seq and callback set), reusing a
// recycled event when there is one.
func (e *Engine) push(x event) *event {
	if x.fn == nil && x.call == nil {
		panic("simtime: nil callback")
	}
	if x.due < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", x.due, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = x
	e.live++
	e.queue.push(ev)
	return ev
}

// recycle takes an event the queue has given up and keeps it for
// reuse. It is marked dead so that a Timer still holding it stops
// nothing until a new seq is written over it.
func (e *Engine) recycle(ev *event) {
	ev.kill()
	e.free = append(e.free, ev)
}

// kill marks an event dead and drops its callback.
func (ev *event) kill() {
	ev.dead = true
	ev.fn, ev.call, ev.arg = nil, nil, nil
}

// After schedules fn d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterArg schedules fn(arg) d after the current virtual time, like
// After. It spares a caller that would build a closure per event the
// allocation: fn can be a method value made once, and a pointer in arg
// costs nothing.
func (e *Engine) AfterArg(d time.Duration, fn func(arg any), arg any) Timer {
	if fn == nil {
		panic("simtime: nil callback")
	}
	seq := e.seq
	e.seq++
	return Timer{ev: e.push(event{due: e.now + max(d, 0), seq: seq, call: fn, arg: arg}), seq: seq, eng: e}
}

// Chain schedules n events, event i due at due(i) and running
// fire(i), while queueing only one at a time. It reserves n
// consecutive seqs now and queues link 0; link i queues link i+1
// under its reserved seq before it calls fire(i). Pop order is by
// (due, seq), so every link fires exactly where it would have if all
// n had been scheduled with At in this call — ties included — while
// the queue holds one event instead of n. due must be non-decreasing
// in i (a link due before the one that queues it panics, as At in the
// past does), and it is called for each link when the previous one
// fires, so what it reads must not change in between. Pending counts
// an unfinished chain as one event.
func (e *Engine) Chain(n int, due func(i int) time.Duration, fire func(i int)) {
	if n <= 0 {
		return
	}
	if due == nil || fire == nil {
		panic("simtime: nil callback")
	}
	base := e.seq
	e.seq += uint64(n)
	next := 0
	var link func()
	link = func() {
		i := next
		next++
		if next < n {
			e.push(event{due: due(next), seq: base + uint64(next), fn: link})
		}
		fire(i)
	}
	e.push(event{due: due(0), seq: base, fn: link})
}

// Ticker is a periodic event that Every schedules. Its ticks are
// ordinary events: Run never returns while a ticker is live, so a run
// with one is bounded by RunUntil's deadline or RunWhile's predicate.
type Ticker struct {
	stopped bool
	timer   Timer
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Every arranges for fn to run every interval of virtual time, first
// one interval from now, until the returned Ticker is stopped. The
// interval must be positive. The tick callback is built once; each
// tick reschedules the same function value.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	tk := &Ticker{}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			tk.timer = e.At(e.now+interval, tick)
		}
	}
	tk.timer = e.At(e.now+interval, tick)
	return tk
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next pending live event, returning false when the
// queue is exhausted.
func (e *Engine) step() bool {
	for {
		ev := e.queue.pop()
		if ev == nil {
			return false
		}
		if ev.dead {
			e.recycle(ev)
			continue
		}
		if ev.due < e.now {
			panic("simtime: event queue went backwards")
		}
		e.now = ev.due
		fn, call, arg := ev.fn, ev.call, ev.arg
		e.recycle(ev)
		e.live--
		e.ran++
		if call != nil {
			call(arg)
		} else {
			fn()
		}
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with due time <= deadline, then sets the
// clock to the deadline. Events after the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.stopped = false
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the clock by d, executing everything due in between.
func (e *Engine) RunFor(d time.Duration) {
	if d < 0 {
		panic("simtime: negative RunFor duration")
	}
	e.RunUntil(e.now + d)
}

// RunWhile hops event-to-event while active() reports outstanding
// work, checking the predicate after every callback so the run stops
// at the exact instant of quiescence instead of overshooting to a
// polling boundary. When work persists but no event at or before the
// deadline can advance it (a wedged component, or an empty queue), the
// clock rides to the deadline and the run returns — the caller's
// horizon, not an iteration count, bounds a stuck simulation.
func (e *Engine) RunWhile(deadline time.Duration, active func() bool) {
	e.stopped = false
	for !e.stopped && active() {
		next, ok := e.peek()
		if !ok || next > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return
		}
		e.step()
	}
}

// peek returns the due time of the next live event, reaping (and
// recycling) cancelled ones it walks over.
func (e *Engine) peek() (time.Duration, bool) {
	for {
		ev := e.queue.peek()
		if ev == nil {
			return 0, false
		}
		if ev.dead {
			e.recycle(e.queue.pop())
			continue
		}
		return ev.due, true
	}
}

// NextEventAt reports when the next live event is due. ok is false when
// the queue is empty.
func (e *Engine) NextEventAt() (t time.Duration, ok bool) { return e.peek() }

// MaxDuration is a convenient "end of time" for RunUntil.
const MaxDuration = time.Duration(math.MaxInt64)
