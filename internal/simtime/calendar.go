package simtime

import (
	"cmp"
	"slices"
	"time"
)

// This file implements the engine's event queue as an indexed
// calendar/bucket queue. The near-future band — a fixed window of
// fixed-width buckets — absorbs the overwhelming majority of
// scheduling traffic (immediate kicks, ticker hops, job completions a
// few minutes out) with O(1) amortised insert and pop. Events due
// beyond the window wait in a (due, seq) min-heap and migrate into
// buckets when the window advances past them. Cancelled timers are
// discarded lazily at pop time (Timer.Stop settles the live count
// immediately), so cancellation never pays the O(n) removal
// a flat heap would need.
//
// Correctness contract: events pop in exactly the total order
// (due, seq) that the previous flat container/heap implementation
// produced, so every run's callback sequence — and therefore its
// EventsRun count — is byte-identical. TestCalendarMatchesReferenceHeap
// fuzzes this equivalence.
const (
	// calWidth is the bucket granularity. One second comfortably
	// separates the simulator's natural event spacings (sub-second
	// kicks land in the current bucket, minute-scale ticks a few
	// buckets out) without making the window scan long.
	calWidth = time.Second
	// calBuckets sizes the near-future window (calBuckets × calWidth ≈
	// 34 simulated minutes). Job completions typically overshoot it and
	// take one far-heap hop — the same cost they paid in the flat heap.
	calBuckets = 2048
)

// bucket holds the events of one calendar slot. Events are appended on
// insert and consumed front-to-back through head; sorted records
// whether the unconsumed tail is known to be in (due, seq) order, so a
// sort runs only when an out-of-order insert actually happened.
type bucket struct {
	evs    []*event
	head   int
	sorted bool
}

// calendar is the two-band event queue: buckets cover
// [base, horizon) and far holds everything at or beyond horizon.
type calendar struct {
	base    time.Duration // start of the bucket window
	horizon time.Duration // base + calBuckets*calWidth
	cur     int           // first possibly-unconsumed bucket
	inNear  int           // events resident in buckets
	far     farHeap       // events with due >= horizon
	size    int           // all queued events, dead included
	buckets []bucket
}

func newCalendar() *calendar {
	c := &calendar{buckets: make([]bucket, calBuckets)}
	c.reset()
	return c
}

// reset kills every queued event and puts the window back at its
// start. The bucket array is kept, zeroed, so no bucket carries its
// old capacity into the next run; the far heap is dropped.
func (c *calendar) reset() {
	for i := range c.buckets {
		b := &c.buckets[i]
		for _, ev := range b.evs[b.head:] {
			ev.kill()
		}
	}
	for _, ev := range c.far {
		ev.kill()
	}
	clear(c.buckets)
	*c = calendar{horizon: time.Duration(calBuckets) * calWidth, buckets: c.buckets}
}

// push enqueues an event. due is immutable after insertion.
func (c *calendar) push(ev *event) {
	c.size++
	if ev.due >= c.horizon {
		c.far.push(ev)
		return
	}
	idx := int((ev.due - c.base) / calWidth)
	if idx < 0 {
		// The window was rebuilt beyond the clock (sparse tail); the
		// first bucket catches everything due before it — the in-bucket
		// sort keeps the order exact.
		idx = 0
	}
	if idx < c.cur {
		// An exhausted bucket is receiving new work (the clock sits
		// behind the seek point after a deadline jump): rewind the seek.
		c.cur = idx
	}
	b := &c.buckets[idx]
	if n := len(b.evs); n == b.head {
		// Every event in the slot is consumed: start it over, so a
		// slot that sees many instants between window rebuilds reuses
		// its storage instead of growing.
		b.evs, b.head, b.sorted = b.evs[:0], 0, true
	} else if b.sorted {
		last := b.evs[n-1]
		if ev.due < last.due || (ev.due == last.due && ev.seq < last.seq) {
			b.sorted = false
		}
	}
	b.evs = append(b.evs, ev)
	c.inNear++
}

// pop removes and returns the globally next event by (due, seq), dead
// or alive; nil when the queue is empty.
func (c *calendar) pop() *event {
	ev := c.next(true)
	if ev != nil {
		c.size--
	}
	return ev
}

// peek returns the next event without consuming it (it still reaps
// nothing — dead-event reaping happens in the engine's loops, which
// pop). nil when empty.
func (c *calendar) peek() *event { return c.next(false) }

// next seeks the earliest event. consume removes it from its band.
func (c *calendar) next(consume bool) *event {
	for {
		for c.cur < calBuckets {
			b := &c.buckets[c.cur]
			if b.head == len(b.evs) {
				if c.inNear == 0 {
					// Nothing left anywhere in the window: jump the
					// seek to the end rather than walking empty slots.
					c.cur = calBuckets
					break
				}
				c.cur++
				continue
			}
			if !b.sorted {
				// (due, seq) keys are unique, so an unstable sort
				// gives the one order there is.
				slices.SortFunc(b.evs[b.head:], func(x, y *event) int {
					if x.due != y.due {
						return cmp.Compare(x.due, y.due)
					}
					return cmp.Compare(x.seq, y.seq)
				})
				b.sorted = true
			}
			ev := b.evs[b.head]
			if consume {
				b.evs[b.head] = nil
				b.head++
				c.inNear--
			}
			return ev
		}
		// Window exhausted: rebuild it around the far heap's earliest
		// event, or report empty.
		if c.far.Len() == 0 {
			return nil
		}
		top := c.far.min()
		c.base = top.due - top.due%calWidth
		c.horizon = c.base + time.Duration(calBuckets)*calWidth
		c.cur = 0
		for i := range c.buckets {
			b := &c.buckets[i]
			b.evs = b.evs[:0]
			b.head = 0
			b.sorted = true
		}
		for c.far.Len() > 0 && c.far.min().due < c.horizon {
			ev := c.far.popMin()
			idx := int((ev.due - c.base) / calWidth)
			b := &c.buckets[idx]
			// Migration pops the far heap in (due, seq) order, so each
			// bucket fills already sorted.
			b.evs = append(b.evs, ev)
			c.inNear++
		}
	}
}

// farHeap is a plain (due, seq) min-heap over events beyond the
// calendar window.
type farHeap []*event

func (h farHeap) Len() int    { return len(h) }
func (h farHeap) min() *event { return h[0] }
func (h farHeap) less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(ev *event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *farHeap) popMin() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}
