package simtime

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAfterOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.After(time.Second, func() {
		fired = append(fired, e.Now())
		e.After(time.Second, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.After(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled timer still ran")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after timer fired")
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(5*time.Second, func() { fired = append(fired, 5) })
	e.RunUntil(2 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("later event lost: fired = %v", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(2*time.Second, func() { ran = true })
	e.RunUntil(2 * time.Second)
	if !ran {
		t.Fatal("event exactly at deadline did not run")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(90 * time.Second)
	if e.Now() != 90*time.Second {
		t.Fatalf("Now() = %v", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At() in the past did not panic")
		}
	}()
	e.At(time.Second, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.After(time.Second, nil)
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.Every(time.Minute, func() {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	defer tk.Stop()
	e.Run()
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	if e.Now() != 5*time.Minute {
		t.Fatalf("Now() = %v, want 5m", e.Now())
	}
}

func TestEveryStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Minute, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.After(10*time.Minute, func() {}) // keep engine alive past tick 3
	e.Run()
	if count != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", count)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func() {})
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1); e.Stop() })
	e.After(2*time.Second, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("Stop did not halt run: %v", fired)
	}
	e.Run() // resumes
	if len(fired) != 2 {
		t.Fatalf("resume after Stop lost events: %v", fired)
	}
}

func TestEventsRunCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	e.Run()
	if e.EventsRun() != 7 {
		t.Fatalf("EventsRun() = %d, want 7", e.EventsRun())
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt ok on empty queue")
	}
	tm := e.After(4*time.Second, func() {})
	e.After(9*time.Second, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 4*time.Second {
		t.Fatalf("NextEventAt = %v,%v", at, ok)
	}
	tm.Stop()
	if at, ok := e.NextEventAt(); !ok || at != 9*time.Second {
		t.Fatalf("NextEventAt after cancel = %v,%v", at, ok)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the engine ends at the max delay.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		var max time.Duration
		for _, d := range delays {
			due := time.Duration(d) * time.Millisecond
			if due > max {
				max = due
			}
			e.At(due, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes events due after the deadline.
func TestQuickRunUntilBoundary(t *testing.T) {
	f := func(delays []uint16, deadline uint16) bool {
		e := NewEngine()
		late := 0
		dl := time.Duration(deadline) * time.Millisecond
		for _, d := range delays {
			due := time.Duration(d) * time.Millisecond
			e.At(due, func() {
				if e.Now() > dl {
					late++
				}
			})
		}
		e.RunUntil(dl)
		return late == 0 && e.Now() == dl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunWhileStopsAtExactQuiescence(t *testing.T) {
	e := NewEngine()
	tk := e.Every(10*time.Minute, func() {})
	defer tk.Stop()
	busy := true
	e.After(25*time.Minute, func() { busy = false })
	e.RunWhile(24*time.Hour, func() bool { return busy })
	if e.Now() != 25*time.Minute {
		t.Fatalf("Now() = %v, want exactly 25m (no overshoot to a tick)", e.Now())
	}
}

func TestRunWhileRidesToDeadlineWhenStuck(t *testing.T) {
	// Stuck with an empty queue: the clock jumps to the deadline.
	e := NewEngine()
	e.RunWhile(2*time.Hour, func() bool { return true })
	if e.Now() != 2*time.Hour {
		t.Fatalf("empty-queue stuck run ended at %v", e.Now())
	}
	// Stuck with only a ticker: ticks fire until the deadline, then
	// the run returns at the deadline.
	e2 := NewEngine()
	ticks := 0
	tk := e2.Every(30*time.Minute, func() { ticks++ })
	defer tk.Stop()
	e2.RunWhile(2*time.Hour, func() bool { return true })
	if e2.Now() != 2*time.Hour {
		t.Fatalf("ticker-only stuck run ended at %v", e2.Now())
	}
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
}

func TestRunWhileInactiveReturnsImmediately(t *testing.T) {
	e := NewEngine()
	e.After(time.Hour, func() { t.Fatal("event ran despite inactive predicate") })
	e.RunWhile(24*time.Hour, func() bool { return false })
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestStaleTimerCannotStopRecycledEvent(t *testing.T) {
	e := NewEngine()
	first := e.After(time.Second, func() {})
	e.Run()
	ran := false
	second := e.After(time.Second, func() { ran = true })
	if first.ev != second.ev {
		t.Fatal("the fired event was not reused for the next schedule")
	}
	if first.Stop() {
		t.Fatal("Stop() through a stale handle = true")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stale Stop, want 1", e.Pending())
	}
	e.Run()
	if !ran {
		t.Fatal("a stale handle cancelled the recycled event")
	}
	if second.Stop() {
		t.Fatal("Stop() = true after the timer fired")
	}
}

func TestZeroTimerStopsNothing(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop() = true")
	}
}

// TestChainMatchesEagerAt runs the same instants twice, once with one
// At per link and once as a Chain, each amid plain events sharing
// those instants (scheduled before and after), and requires the same
// firing order.
func TestChainMatchesEagerAt(t *testing.T) {
	dues := []time.Duration{0, 0, time.Second, time.Second, time.Second, time.Hour, 3 * time.Hour, 3 * time.Hour}
	run := func(chain bool) []string {
		e := NewEngine()
		var got []string
		plain := func(tag string, at time.Duration) {
			e.At(at, func() { got = append(got, fmt.Sprintf("%s@%v", tag, e.Now())) })
		}
		plain("before", time.Second)
		fire := func(i int) {
			got = append(got, fmt.Sprintf("link%d@%v", i, e.Now()))
			// A link's own work schedules at its instant, as a job
			// submission's Kick does.
			e.After(0, func() { got = append(got, fmt.Sprintf("kick%d", i)) })
		}
		if chain {
			e.Chain(len(dues), func(i int) time.Duration { return dues[i] }, fire)
			if e.Pending() != 2 {
				t.Fatalf("Pending = %d with a chain queued, want 2 (one per chain)", e.Pending())
			}
		} else {
			for i, at := range dues {
				e.At(at, func() { fire(i) })
			}
		}
		plain("after", time.Second)
		plain("after", 3*time.Hour)
		e.Run()
		if e.Pending() != 0 || e.EventsRun() != uint64(len(got)) {
			t.Fatalf("Pending = %d, EventsRun = %d after %d callbacks", e.Pending(), e.EventsRun(), len(got))
		}
		return got
	}
	eager, chained := run(false), run(true)
	if !slices.Equal(eager, chained) {
		t.Fatalf("chain order %v\nwant %v", chained, eager)
	}
}

func TestChainOutOfOrderPanics(t *testing.T) {
	e := NewEngine()
	dues := []time.Duration{time.Hour, time.Minute}
	e.Chain(len(dues), func(i int) time.Duration { return dues[i] }, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a link due before its predecessor did not panic")
		}
	}()
	e.Run()
}

// TestEventPathAllocatesNothing locks the recycled event path: once
// the queue's storage has grown, scheduling and firing events with a
// prebuilt callback — plain, stopped, and ticker hops — allocates
// nothing.
func TestEventPathAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tk := e.Every(time.Minute, fn)
	defer tk.Stop()
	round := func() {
		for i := 0; i < 64; i++ {
			e.After(0, fn)
			e.After(time.Second, fn)
			e.After(time.Hour, fn).Stop()
			e.RunFor(time.Second)
		}
	}
	// Warm up until every bucket and the far heap have grown to this
	// load. Window rebuilds start at the far heap's earliest event, so
	// which buckets a second maps to drifts from pass to pass; they
	// have all reached their size after about 17 windows.
	for e.Now() < 20*calBuckets*calWidth {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("%v allocations per round of 64 schedule-and-fire steps, want 0", allocs)
	}
}

// TestAfterArgMatchesAfter: an AfterArg event takes its place in the
// (due, seq) order exactly as an After closure would, runs its callback
// with its argument, counts as pending, stops like any timer,
// and costs no allocation once the engine is warm.
func TestAfterArgMatchesAfter(t *testing.T) {
	e := NewEngine()
	var got []string
	var args [4]int
	record := func(x any) { got = append(got, fmt.Sprintf("arg%d@%v", *x.(*int), e.Now())) }
	for i := range args {
		args[i] = i
	}
	e.After(time.Minute, func() { got = append(got, fmt.Sprintf("fn@%v", e.Now())) })
	e.AfterArg(time.Minute, record, &args[0])
	e.AfterArg(-time.Second, record, &args[1]) // clamped to now
	stopped := e.AfterArg(time.Second, record, &args[2])
	e.AfterArg(time.Second, record, &args[3])
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	if !stopped.Stop() {
		t.Fatal("pending AfterArg timer did not stop")
	}
	e.Run()
	want := []string{"arg1@0s", "arg3@1s", "fn@1m0s", "arg0@1m0s"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	n := 0
	count := func(x any) { n += *x.(*int) }
	round := func() {
		for range 64 {
			e.AfterArg(time.Second, count, &args[1])
			e.RunFor(time.Second)
		}
	}
	for e.Now() < 20*calBuckets*calWidth { // as in TestEventPathAllocatesNothing
		round()
	}
	n = 0
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("%v allocations per round of 64 AfterArg events, want 0", allocs)
	}
	if n != 64*21 {
		t.Fatalf("callbacks ran %d times, want %d", n, 64*21)
	}
}

// Reset orphans every handle issued before it: a Timer (near and far),
// a Ticker and a half-run Chain neither fire after it nor stop
// anything, Pending does not move when they are stopped, and the
// clock and the callback count restart at zero.
func TestResetOrphansTimers(t *testing.T) {
	e := NewEngine()
	old := 0
	count := func() { old++ }
	near := e.After(5*time.Minute, count)
	far := e.After(40*time.Hour, count)
	cancelled := e.After(time.Hour, count)
	cancelled.Stop()
	tk := e.Every(time.Minute, count)
	e.Chain(4, func(i int) time.Duration { return time.Duration(i) * 3 * time.Hour }, func(int) { old++ })
	e.RunUntil(90 * time.Second) // chain link 0 and one tick
	if old != 2 || e.Pending() != 4 {
		t.Fatalf("before Reset: %d callbacks, %d pending; want 2 and 4", old, e.Pending())
	}

	e.Reset()
	if e.Now() != 0 || e.EventsRun() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: Now %v, EventsRun %d, Pending %d; want all zero", e.Now(), e.EventsRun(), e.Pending())
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("after Reset: an event is still queued")
	}
	fresh := 0
	e.After(time.Minute, func() { fresh++ })
	keep := e.After(2*time.Minute, func() { fresh++ })
	for _, tm := range []Timer{near, far, cancelled} {
		if tm.Stop() {
			t.Fatal("a Timer issued before Reset stopped something")
		}
	}
	tk.Stop()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after stopping old handles, want 2", e.Pending())
	}
	e.Run()
	if old != 2 || fresh != 2 {
		t.Fatalf("after Reset: %d old callbacks (want 2), %d new (want 2)", old, fresh)
	}
	if e.Now() != 2*time.Minute || e.EventsRun() != 2 {
		t.Fatalf("after the second run: Now %v, EventsRun %d; want 2m0s and 2", e.Now(), e.EventsRun())
	}
	if keep.Stop() {
		t.Fatal("Stop on a fired timer returned true")
	}
}
