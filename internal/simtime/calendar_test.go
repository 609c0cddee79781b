package simtime

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap replicates the engine's previous flat container/heap queue —
// the reference the calendar queue must match event for event.
type refHeap []*event

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *refHeap) Pop() any     { old := *q; n := len(old); ev := old[n-1]; *q = old[:n-1]; return ev }
func (q refHeap) peekDue() (time.Duration, bool) {
	if len(q) == 0 {
		return 0, false
	}
	return q[0].due, true
}

// TestCalendarMatchesReferenceHeap fuzzes random interleavings of
// inserts (immediate, near-window, far-future) and pops against the
// reference heap: the calendar must produce the identical (due, seq)
// sequence, including across window rebuilds and deadline jumps.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		cal := newCalendar()
		ref := &refHeap{}
		var now time.Duration
		var seq uint64
		push := func(due time.Duration) {
			ev := &event{due: due, seq: seq}
			seq++
			cal.push(ev)
			heap.Push(ref, &event{due: due, seq: ev.seq})
		}
		randDue := func() time.Duration {
			switch rng.Intn(10) {
			case 0, 1, 2: // immediate kick
				return now
			case 3, 4, 5: // sub-window
				return now + time.Duration(rng.Int63n(int64(10*time.Minute)))
			case 6, 7: // near the window edge
				return now + time.Duration(rng.Int63n(int64(time.Hour)))
			default: // far future
				return now + time.Duration(rng.Int63n(int64(300*time.Hour)))
			}
		}
		for op := 0; op < 20000; op++ {
			if cal.size == 0 || rng.Intn(3) != 0 {
				push(randDue())
				continue
			}
			got := cal.pop()
			want := heap.Pop(ref).(*event)
			if got == nil || got.due != want.due || got.seq != want.seq {
				t.Fatalf("seed %d op %d: pop = (%v, %d), reference (%v, %d)",
					seed, op, got.due, got.seq, want.due, want.seq)
			}
			if got.due < now {
				t.Fatalf("seed %d op %d: queue went backwards (%v < %v)", seed, op, got.due, now)
			}
			now = got.due
			// Occasionally jump the clock the way RunUntil does, so
			// inserts land behind the calendar's seek point.
			if rng.Intn(50) == 0 {
				now += time.Duration(rng.Int63n(int64(2 * time.Hour)))
				if due, ok := (*ref).peekDue(); ok && now > due {
					now = due
				}
			}
		}
		// Drain: the remaining order must match exactly.
		for ref.Len() > 0 {
			got, want := cal.pop(), heap.Pop(ref).(*event)
			if got == nil || got.due != want.due || got.seq != want.seq {
				t.Fatalf("seed %d drain: pop = %+v, want (%v, %d)", seed, got, want.due, want.seq)
			}
		}
		if cal.pop() != nil || cal.size != 0 {
			t.Fatalf("seed %d: calendar not empty after drain", seed)
		}
	}
}

// TestCalendarPeekDoesNotConsume pins that peek leaves the next event
// in place across bands.
func TestCalendarPeekDoesNotConsume(t *testing.T) {
	cal := newCalendar()
	far := &event{due: 400 * time.Hour, seq: 0}
	cal.push(far)
	for i := 0; i < 3; i++ {
		if got := cal.peek(); got != far {
			t.Fatalf("peek %d = %+v, want the far event", i, got)
		}
	}
	if got := cal.pop(); got != far {
		t.Fatalf("pop = %+v, want the far event", got)
	}
	if cal.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestStopLeavesPendingImmediately pins the Timer.Stop fix: a
// cancelled timer must leave Pending() at Stop time, not linger until
// its fire time is reaped.
func TestStopLeavesPendingImmediately(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Hour, func() { t.Fatal("cancelled timer fired") })
	other := e.After(2*time.Hour, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending=%d before Stop, want 2", e.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on a pending timer")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending=%d after Stop, want 1", e.Pending())
	}
	other.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d after the second Stop, want 0", e.Pending())
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	if e.Pending() != 0 {
		t.Fatalf("double Stop double-counted: Pending=%d", e.Pending())
	}
}

// TestStopUnblocksQuiescence pins the behavioural consequence of the
// fix: a run that lasts while events are pending must return at the
// instant the last live event completes, not ride out a cancelled
// timer's due time.
func TestStopUnblocksQuiescence(t *testing.T) {
	e := NewEngine()
	e.After(time.Minute, func() {})
	ghost := e.After(10*time.Hour, func() {})
	ghost.Stop()
	e.RunWhile(MaxDuration, func() bool { return e.Pending() > 0 })
	if e.Now() != time.Minute {
		t.Fatalf("run stopped at %v, want %v", e.Now(), time.Minute)
	}
}
