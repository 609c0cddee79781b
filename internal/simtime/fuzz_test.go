package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// heapModel is the engine as a plain container/heap of events in
// (due, seq) order, with the live count kept by hand:
// the reference FuzzCalendarMatchesHeap holds the calendar queue to.
// It schedules every link of a chain up front, under the seqs the
// engine reserves for them.
type heapModel struct {
	q     refHeap
	now   time.Duration
	live  int
	fired []uint64 // seq of every event run, in order
	// queuesNext marks the chain links that queue a successor when
	// they run; unqueued counts the links the engine has not queued
	// yet, all but the next of every unfinished chain.
	queuesNext map[uint64]bool
	unqueued   int
}

func (m *heapModel) schedule(ev *event) {
	heap.Push(&m.q, ev)
	m.live++
}

// chain schedules the n links of a chain eagerly.
func (m *heapModel) chain(base uint64, n int, due func(i int) time.Duration) {
	if m.queuesNext == nil {
		m.queuesNext = map[uint64]bool{}
	}
	for i := 0; i < n; i++ {
		m.queuesNext[base+uint64(i)] = i < n-1
		m.schedule(&event{due: due(i), seq: base + uint64(i)})
	}
	m.unqueued += n - 1
}

// queued returns the live count the engine should report.
func (m *heapModel) queued() int { return m.live - m.unqueued }

// stop mirrors Timer.Stop: only a queued live event can be stopped.
func (m *heapModel) stop(ev *event) bool {
	if ev.dead {
		return false
	}
	ev.dead = true
	m.live--
	return true
}

// next returns the next live event without running it.
func (m *heapModel) next() *event {
	for m.q.Len() > 0 && m.q[0].dead {
		heap.Pop(&m.q)
	}
	if m.q.Len() == 0 {
		return nil
	}
	return m.q[0]
}

// step runs the next live event, reporting whether there was one.
func (m *heapModel) step() bool {
	ev := m.next()
	if ev == nil {
		return false
	}
	heap.Pop(&m.q)
	ev.dead = true // a run event cannot be stopped
	m.now = ev.due
	m.live--
	if m.queuesNext[ev.seq] {
		m.unqueued--
	}
	m.fired = append(m.fired, ev.seq)
	return true
}

// runUntil mirrors Engine.RunUntil.
func (m *heapModel) runUntil(deadline time.Duration) {
	for ev := m.next(); ev != nil && ev.due <= deadline; ev = m.next() {
		m.step()
	}
	m.now = max(m.now, deadline)
}

// fuzzDelay maps two script bytes to a delay from now: immediate,
// within a second (one bucket), up to 42 minutes (across the near
// window's edge, which a 16 s grid hits exactly), or up to 45 hours
// (far past it). The delays sit on coarse grids so that events often
// share a due time and their order rests on seq, in the buckets and in
// the far heap alike.
func fuzzDelay(class, n byte) time.Duration {
	switch class % 4 {
	case 0:
		return 0
	case 1:
		return time.Duration(n%32) * 31 * time.Millisecond
	case 2:
		return time.Duration(n%160) * 16 * time.Second
	default:
		return time.Duration(n%16) * 3 * time.Hour
	}
}

// calendarDiffers replays a byte-coded script on an engine and on the
// heap model and reports the first disagreement. Each op is three
// bytes: a kind and two arguments. Every callback records the seq the
// model gave its event, so the fired lists compare order and identity.
func calendarDiffers(script []byte) error {
	e := NewEngine()
	m := &heapModel{}
	var fired []uint64
	var timers []Timer
	var model []*event
	var seq uint64 // the engine's next seq, tracked by hand
	checked := 0   // fired entries already compared
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i]%10, script[i+1], script[i+2]
		if op == 9 && a%8 != 0 {
			op = 5 // a reset, one time in eight; otherwise one event
		}
		switch op {
		case 0, 1, 2, 3: // schedule
			at := e.Now() + fuzzDelay(a, b)
			s := seq
			seq++
			timers = append(timers, e.At(at, func() { fired = append(fired, s) }))
			ev := &event{due: at, seq: s}
			model = append(model, ev)
			m.schedule(ev)
		case 4: // stop, possibly through a handle whose event ran and was reused
			if len(timers) == 0 {
				continue
			}
			k := (int(a)<<8 | int(b)) % len(timers)
			want := m.stop(model[k])
			if got := timers[k].Stop(); got != want {
				return fmt.Errorf("op %d: Stop(%d) = %v, model %v", i/3, k, got, want)
			}
		case 5, 6: // one event
			if got, want := e.step(), m.step(); got != want {
				return fmt.Errorf("op %d: step ran %v, model %v", i/3, got, want)
			}
		case 7: // jump
			deadline := e.Now() + fuzzDelay(a, b)
			e.RunUntil(deadline)
			m.runUntil(deadline)
		case 8: // chain of 1–8 links, evenly spaced (often by zero)
			n := 1 + int(a%8)
			start, gap := e.Now()+fuzzDelay(b, a), fuzzDelay(a>>3, b>>2)
			due := func(i int) time.Duration { return start + time.Duration(i)*gap }
			base := seq
			seq += uint64(n)
			e.Chain(n, due, func(i int) { fired = append(fired, base+uint64(i)) })
			m.chain(base, n, due)
		case 9: // reset: the engine starts over and the model with it
			e.Reset()
			if c := e.queue; !reflect.DeepEqual(c, newCalendar()) || e.free != nil {
				return fmt.Errorf("op %d: Reset left window [%v, %v) cur %d, %d near, %d queued, %d far, %d free",
					i/3, c.base, c.horizon, c.cur, c.inNear, c.size, c.far.Len(), len(e.free))
			}
			for _, ev := range model {
				ev.dead = true // no handle issued before may stop anything
			}
			m = &heapModel{fired: m.fired}
		}
		if err := sameState(e, m, fired, &checked); err != nil {
			return fmt.Errorf("op %d: %v", i/3, err)
		}
	}
	e.Run()
	for m.step() {
	}
	return sameState(e, m, fired, &checked)
}

// sameState compares what the engine exposes with the model. The
// fired lists agree on their first *checked entries already; only the
// rest is compared, so a long script costs linear time.
func sameState(e *Engine, m *heapModel, fired []uint64, checked *int) error {
	if len(fired) != len(m.fired) || !slices.Equal(fired[*checked:], m.fired[*checked:]) {
		return fmt.Errorf("fired %v, model %v", fired[*checked:], m.fired[*checked:])
	}
	*checked = len(fired)
	if e.Now() != m.now {
		return fmt.Errorf("clock %v, model %v", e.Now(), m.now)
	}
	if live := m.queued(); e.Pending() != live {
		return fmt.Errorf("pending %d, model %d", e.Pending(), live)
	}
	at, ok := e.NextEventAt()
	if ev := m.next(); ok != (ev != nil) || ok && at != ev.due {
		return fmt.Errorf("next event at %v (%v), model %+v", at, ok, ev)
	}
	return nil
}

// FuzzCalendarMatchesHeap checks the calendar queue against a plain
// container/heap with the same (due, seq) order under schedules (due
// now, within a bucket, across the near window's edge, far past it),
// chains, Timer.Stop (on recycled events too), single steps, RunUntil
// jumps and Resets (after which the model starts over): the same
// callbacks run in the same order at the same instants, every Stop
// reports the same, and Pending and NextEventAt agree after every op.
func FuzzCalendarMatchesHeap(f *testing.F) {
	// Two events due exactly at the first window's edge, a far one,
	// then steps.
	f.Add([]byte{0, 2, 128, 3, 2, 128, 0, 3, 1, 5, 0, 0, 5, 0, 0, 5, 0, 0})
	// An event fires and its recycled slot takes a later schedule;
	// Stop on the first handle must report false and leave the second
	// event queued.
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 1, 5, 4, 0, 0, 5, 0, 0})
	// Chains tied with plain events at one instant (gap zero), then a
	// chain 31 ms apart across a plain event, then a drain.
	f.Add([]byte{0, 0, 0, 8, 3, 0, 0, 0, 0, 5, 0, 0, 8, 11, 4, 1, 0, 2, 5, 0, 0, 7, 1, 31, 5, 0, 0})
	// A reset once the window has moved to 15 h, with a live and a
	// cancelled event in the far heap and a chain with three links to
	// go queued; then Stop on a handle from before it, and a new
	// schedule, chain, step and jump on the reset engine.
	f.Add([]byte{3, 3, 5, 3, 3, 7, 3, 3, 15, 4, 0, 1, 8, 27, 8, 7, 3, 1, 9, 0, 0,
		4, 0, 0, 0, 1, 3, 8, 19, 8, 5, 0, 0, 7, 3, 1})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*(200+rng.Intn(400)))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := calendarDiffers(script); err != nil {
			t.Fatal(err)
		}
	})
}
