package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// heapModel is the engine as a plain container/heap of events in
// (due, seq) order, with the live and foreground counts kept by hand:
// the reference FuzzCalendarMatchesHeap holds the calendar queue to.
type heapModel struct {
	q                refHeap
	now              time.Duration
	live, foreground int
	fired            []uint64 // seq of every event run, in order
}

func (m *heapModel) schedule(ev *event) {
	heap.Push(&m.q, ev)
	m.live++
	if !ev.background {
		m.foreground++
	}
}

// stop mirrors Timer.Stop: only a queued live event can be stopped.
func (m *heapModel) stop(ev *event) bool {
	if ev.dead {
		return false
	}
	ev.dead = true
	m.live--
	if !ev.background {
		m.foreground--
	}
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
	if !ev.background {
		m.foreground--
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
// bytes: a kind and two arguments.
func calendarDiffers(script []byte) error {
	e := NewEngine()
	m := &heapModel{}
	var fired []uint64
	var timers []*Timer
	var model []*event
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i]%8, script[i+1], script[i+2]
		switch op {
		case 0, 1, 2, 3: // schedule; kind 3 is background
			at, background := e.Now()+fuzzDelay(a, b), op == 3
			seq := uint64(len(timers))
			fn := func() { fired = append(fired, seq) }
			schedule := e.At
			if background {
				schedule = e.AtBackground
			}
			timers = append(timers, schedule(at, fn))
			ev := &event{due: at, seq: seq, background: background}
			model = append(model, ev)
			m.schedule(ev)
		case 4: // stop
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
		}
		if err := sameState(e, m, fired); err != nil {
			return fmt.Errorf("op %d: %v", i/3, err)
		}
	}
	e.Run()
	for m.step() {
	}
	return sameState(e, m, fired)
}

// sameState compares what the engine exposes with the model.
func sameState(e *Engine, m *heapModel, fired []uint64) error {
	if !slices.Equal(fired, m.fired) {
		return fmt.Errorf("fired %v, model %v", fired, m.fired)
	}
	if e.Now() != m.now {
		return fmt.Errorf("clock %v, model %v", e.Now(), m.now)
	}
	if e.Pending() != m.live || e.ForegroundPending() != m.foreground {
		return fmt.Errorf("pending %d (foreground %d), model %d (%d)", e.Pending(), e.ForegroundPending(), m.live, m.foreground)
	}
	at, ok := e.NextEventAt()
	if ev := m.next(); ok != (ev != nil) || ok && at != ev.due {
		return fmt.Errorf("next event at %v (%v), model %+v", at, ok, ev)
	}
	return nil
}

// FuzzCalendarMatchesHeap checks the calendar queue against a plain
// container/heap with the same (due, seq) order under schedules
// (foreground and background, due now, within a bucket, across the
// near window's edge, far past it), Timer.Stop, single steps and
// RunUntil jumps: the same callbacks run in the same order at the same
// instants, every Stop reports the same, and Pending,
// ForegroundPending and NextEventAt agree after every op.
func FuzzCalendarMatchesHeap(f *testing.F) {
	// Two events due exactly at the first window's edge, one of them
	// background, a far one, then steps.
	f.Add([]byte{0, 2, 128, 3, 2, 128, 0, 3, 1, 5, 0, 0, 5, 0, 0, 5, 0, 0})
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
