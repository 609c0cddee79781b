// Package sched is the scheduling core both head-node simulations
// share. Torque on the Linux side and Windows HPC Server on the
// Windows side differ in text formats and resource units, not in how
// they queue work, so internal/pbs and internal/winhpc each hold one
// Core and keep only their own job and node types, IDs, validation and
// renderings.
//
// The core is deterministic first-come first-served over a node table,
// with optional reservation-based EASY backfill. Its state is
// incremental: live queued and running ledgers, O(1) census counters,
// and max segment trees over per-node free slots, so a scheduling pass
// or a controller poll never rescans the job history or the node
// table. What differs between the two faces travels as data on each
// Entry (queue key, demand shape, walltime), never as a mode flag.
package sched

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/simtime"
)

// NodeState is a node's schedulability.
type NodeState uint8

const (
	// Up nodes take new work.
	Up NodeState = iota
	// Offline nodes are drained administratively: their jobs keep
	// running, no new work lands, and their slots still count as up.
	Offline
	// Down nodes are lost (rebooted into the other OS); their slots
	// count toward no capacity.
	Down
)

// Shape says how an entry's demand maps onto nodes.
type Shape uint8

const (
	// PerNode asks for Count distinct nodes with PPN free slots each:
	// Torque's nodes=N:ppn=M.
	PerNode Shape = iota
	// Whole asks for Count idle nodes and takes every slot on each:
	// the HPC Pack node unit.
	Whole
	// Anywhere asks for Count slots on any nodes, first fit in node
	// order: the HPC Pack core unit.
	Anywhere
)

// Grant is one node's share of a placement: Slots slots on the node
// with index Node.
type Grant struct{ Node, Slots int }

type entryState uint8

const (
	queued entryState = iota
	running
	done
)

// Entry is one job as the core sees it. The face fills the exported
// fields before Submit and must not change them while the entry is
// queued or running. Faces embed entries in their jobs, so the entry
// stays small: what only a running entry needs lives in the running
// ledger.
type Entry struct {
	// Seq is unique per core and orders the queue within a priority
	// level; the faces use their job numbers, which also lets them map
	// an entry back to its job.
	Seq int
	// Count is nodes (PerNode, Whole) or slots (Anywhere); PPN is slots
	// per node (PerNode). Every entry asks for something: Count is at
	// least 1, and so is PPN for PerNode.
	Count, PPN int
	Runtime    time.Duration
	// Walltime caps the run (0 = none): the job is killed there, and
	// it bounds the projected end the EASY reservation plans with.
	Walltime time.Duration
	runIdx   int  // slot in Core.running while running
	Prio     int8 // higher first
	Shape    Shape
	Rerun    bool // requeue instead of fail on node loss
	state    entryState
	inQueue  bool // has an entry in Core.queued, live or stale
}

// limit is how long the entry holds its slots once started, as far as
// the scheduler may assume: the walltime when one is set, else the
// runtime. Both are upper bounds on the real run.
func (e *Entry) limit() time.Duration {
	if e.Walltime > 0 {
		return e.Walltime
	}
	return e.Runtime
}

// runFor is how long the entry really runs once started: its runtime,
// cut at the walltime when one is set.
func (e *Entry) runFor() time.Duration {
	if e.Walltime > 0 {
		return min(e.Runtime, e.Walltime)
	}
	return e.Runtime
}

// less orders the queue: priority descending, Seq order within a
// level.
func less(a, b *Entry) bool {
	if a.Prio != b.Prio {
		return a.Prio > b.Prio
	}
	return a.Seq < b.Seq
}

// Face is what a head node plugs into its core.
type Face struct {
	// Backfill points at the face's EASY switch; each pass reads it.
	Backfill *bool
	// Skip, when set, passes over queued entries that may not start in
	// this pass without letting them block the queue. It must not have
	// side effects. The pass asks it for every live entry it reaches,
	// before consulting anything it has learnt earlier in the pass, so
	// its answer may change mid-pass (a queue reaching its running cap).
	Skip func(*Entry) bool
	// Started runs once the core has placed and started an entry,
	// before its completion is scheduled; Finished runs when it ends
	// by itself. Neither may be nil. Started may submit work, but it
	// must not release capacity — no Stop, Interrupt, node loss or node
	// return — because the pass relies on capacity only shrinking while
	// it runs.
	Started, Finished func(*Entry)
}

// Census is the core's O(1) accounting.
type Census struct {
	Queued      int // entries waiting
	QueuedSlots int // slots they ask for (PerNode and Anywhere)
	QueuedWhole int // whole nodes they ask for (Whole)
	Running     int
	SlotsUp     int // slots on nodes that are not Down
	SlotsOnline int // slots on Up nodes
	NodesOnline int // Up nodes
}

type node struct {
	slots, used int
	state       NodeState
}

// run is one running entry with its projected end — its limit past its
// start, which the EASY reservation plans with — and its grants, in
// node order.
type run struct {
	e      *Entry
	end    time.Duration
	grants []Grant
}

// Core is one head node's scheduler state.
type Core struct {
	eng   *simtime.Engine
	face  Face
	nodes []node
	cen   Census

	// queued holds waiting entries in queue order. Entries whose job
	// has moved on are dead weight until compact sweeps them;
	// Entry.inQueue flags membership so a requeued entry revives its
	// stale slot instead of duplicating it. head is the first possibly
	// live index: under a deep backlog the stale prefix grows by one
	// per start while compaction waits for its majority threshold, and
	// the cursor keeps each pass proportional to live work.
	queued []*Entry
	dead   int
	head   int

	// running holds executing entries; removal swaps the tail into the
	// vacated slot via Entry.runIdx, and the vacated grants slice waits
	// past the end for the next start to reuse.
	running []run

	// free and idle are max segment trees over node indices, of free
	// slots and of a wholly-free flag (both 0 unless Up); placement
	// jumps straight to the next node that fits. freeSlots and idleN
	// are their totals.
	free, idle       []int
	treeCap          int
	freeSlots, idleN int

	// Scratch buffers reused across passes.
	grantBuf []Grant
	rsvFree  []int
	rsvRun   []release
	memo     []verdicts

	// changes counts every change to the node table, slot use or
	// running set. last is the most recent reservation with the
	// pivot demand and change count it was computed for: while
	// neither moved, a later pass reuses it instead of replaying
	// releases again.
	changes uint64
	last    struct {
		rsv     reservation
		d       demand
		changes uint64
	}

	pending bool
	// override replaces the scheduling pass; tests use it to rebuild
	// state from scratch first, or to run a replica of an old policy.
	override func()
}

// New creates a core on the simulation engine.
func New(eng *simtime.Engine, f Face) *Core { return &Core{eng: eng, face: f} }

// AddNode registers a node with the given slot count and returns its
// index. Registration order is placement order.
func (c *Core) AddNode(slots int, st NodeState) int {
	c.nodes = append(c.nodes, node{slots: slots, state: Down})
	c.changes++
	i := len(c.nodes) - 1
	c.refresh(i)
	c.SetNode(i, st)
	return i
}

// SetNode changes a node's state and keeps the census and trees in
// step. Bringing a node Up kicks a pass; the entries a lost node
// held are the face's to Interrupt.
func (c *Core) SetNode(i int, st NodeState) {
	n := &c.nodes[i]
	if n.state != st {
		c.count(n, -1)
		n.state = st
		c.count(n, 1)
		c.refresh(i)
		c.changes++
	}
	if st == Up {
		c.Kick()
	}
}

// count adds (sign 1) or removes (sign -1) a node's contribution to
// the census.
func (c *Core) count(n *node, sign int) {
	if n.state != Down {
		c.cen.SlotsUp += sign * n.slots
	}
	if n.state == Up {
		c.cen.NodesOnline += sign
		c.cen.SlotsOnline += sign * n.slots
		c.freeSlots += sign * (n.slots - n.used)
		if n.used == 0 {
			c.idleN += sign
		}
	}
}

// Used returns the slots allocated on node i.
func (c *Core) Used(i int) int { return c.nodes[i].used }

// State returns node i's state.
func (c *Core) State(i int) NodeState { return c.nodes[i].state }

// Census returns the maintained counters.
func (c *Core) Census() Census {
	cen := c.cen
	cen.Running = len(c.running)
	return cen
}

// Submit queues an entry, or requeues one that left the queue, at its
// key's position, and kicks a pass.
func (c *Core) Submit(e *Entry) {
	if e.Count < 1 || e.Shape == PerNode && e.PPN < 1 {
		panic("sched: entry asks for no slots")
	}
	c.enqueue(e)
	c.Kick()
}

// Withdraw takes a queued entry out of the queue without starting it.
func (c *Core) Withdraw(e *Entry) {
	c.cen.tally(e, -1)
	c.dead++ // its slot in queued is stale now
	e.state = done
}

// tally adds (sign 1) or removes (sign -1) a queued entry and its
// demand.
func (cn *Census) tally(e *Entry, sign int) {
	cn.Queued += sign
	switch e.Shape {
	case PerNode:
		cn.QueuedSlots += sign * e.Count * e.PPN
	case Whole:
		cn.QueuedWhole += sign * e.Count
	default:
		cn.QueuedSlots += sign * e.Count
	}
}

func (c *Core) enqueue(e *Entry) {
	e.state = queued
	c.cen.tally(e, 1)
	if e.inQueue {
		c.dead-- // its stale slot is live again
		// The revived slot may sit below the head cursor; pull the
		// cursor back so the next pass sees it.
		at, _ := slices.BinarySearchFunc(c.queued, e, before)
		c.head = min(c.head, at)
		return
	}
	e.inQueue = true
	if n := len(c.queued); n == 0 || less(c.queued[n-1], e) {
		c.queued = append(c.queued, e)
		return
	}
	at, _ := slices.BinarySearchFunc(c.queued, e, before)
	c.queued = slices.Insert(c.queued, at, e)
	c.head = min(c.head, at)
}

// before is less as a comparison for binary search.
func before(a, b *Entry) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// Stop ends a running entry early (a kill or cancellation): its slots
// are released and it leaves the running ledger. The caller kicks.
func (c *Core) Stop(e *Entry) {
	i, last := e.runIdx, len(c.running)-1
	for _, g := range c.running[i].grants {
		c.use(g.Node, -g.Slots)
	}
	c.running[i], c.running[last] = c.running[last], c.running[i]
	c.running[i].e.runIdx = i
	c.running[last].e = nil
	c.running = c.running[:last]
	e.state = done
	c.changes++
}

// Grants returns a running entry's placement, in node order. It is
// valid until the entry stops.
func (c *Core) Grants(e *Entry) []Grant { return c.running[e.runIdx].grants }

// Interrupt handles a running entry losing a node: it stops, and a
// rerunnable entry goes back to its queue position. It reports whether
// the entry was requeued. The caller kicks.
func (c *Core) Interrupt(e *Entry) bool {
	c.Stop(e)
	if !e.Rerun {
		return false
	}
	c.enqueue(e)
	return true
}

// Holding lists the running entries with a grant on node i, in Seq
// order.
func (c *Core) Holding(i int) []*Entry {
	var out []*Entry
	for _, r := range c.running {
		for _, g := range r.grants {
			if g.Node == i {
				out = append(out, r.e)
				break
			}
		}
	}
	slices.SortFunc(out, bySeq)
	return out
}

func bySeq(a, b *Entry) int { return cmp.Compare(a.Seq, b.Seq) }

// Running lists the running entries in Seq order.
func (c *Core) Running() []*Entry {
	out := make([]*Entry, len(c.running))
	for i, r := range c.running {
		out[i] = r.e
	}
	slices.SortFunc(out, bySeq)
	return out
}

// Queue lists the queued entries in queue order.
func (c *Core) Queue() []*Entry {
	out := make([]*Entry, 0, c.cen.Queued)
	for _, e := range c.queued[c.head:] {
		if e.state == queued {
			out = append(out, e)
		}
	}
	return out
}

// First returns the head of the queue, nil when it is empty.
func (c *Core) First() *Entry {
	c.advance()
	if c.head < len(c.queued) {
		return c.queued[c.head]
	}
	return nil
}

// advance slides the head cursor past stale entries.
func (c *Core) advance() {
	for c.head < len(c.queued) && c.queued[c.head].state != queued {
		c.head++
	}
}

// compact sweeps stale entries once they dominate the queue.
func (c *Core) compact() {
	if c.dead <= 64 || c.dead*2 <= len(c.queued) {
		return
	}
	kept := c.queued[:0]
	for _, e := range c.queued {
		if e.state == queued {
			kept = append(kept, e)
		} else {
			e.inQueue = false
		}
	}
	clear(c.queued[len(kept):])
	c.queued = kept
	c.dead, c.head = 0, 0
}

// Kick coalesces scheduling passes into a single immediate event.
func (c *Core) Kick() {
	if c.pending {
		return
	}
	c.pending = true
	c.eng.After(0, func() {
		c.pending = false
		if c.override != nil {
			c.override()
			return
		}
		c.pass()
	})
}

// pass runs one scheduling pass. FCFS: start the head of the queue and
// stop at the first entry that does not fit. With backfill the pass is
// EASY: the first blocked entry becomes the pivot and gets a
// reservation at its shadow time — the earliest instant it fits once
// running entries release their slots at their projected ends — and
// later entries may start only if that cannot delay the reservation.
// Skipped entries never block.
//
// Behind the pivot the pass remembers per demand family what it has
// learnt (Core.memo), so a backlog thousands deep but of a few demand
// shapes costs a few placement attempts, not one per entry. Both memos
// are exact because capacity only shrinks during a pass: the pass only
// starts entries, and Started may not release anything.
//   - A failed placement stays failed for the rest of the pass, and so
//     does every demand it dominates. Whether a demand fits depends only
//     on how many nodes or slots meet it: starts only lower that, and a
//     larger count, or for PerNode a larger PPN, only needs more.
//   - A long candidate (still running at the shadow time) whose grants
//     would leave the pivot unplaceable there stays refused until the
//     next start. Until then the node table and the reservation are
//     exactly as they were, so the same demand gets the same first-fit
//     grants and the same refusal, and a larger count of its family gets
//     grants that cover those and leave the pivot less still. A start
//     changes both, so it clears these refusals.
//
// And once no slot and no node is free, nothing behind the pivot can
// start, since every entry asks for at least one slot or node, so the
// pass ends there.
func (c *Core) pass() {
	c.compact()
	c.advance()
	var pivot *Entry
	var rsv reservation
	// The bound snapshots the pass: entries submitted by a Started
	// callback mid-pass wait for the next kick.
	bound := len(c.queued)
	for i := c.head; i < bound; i++ {
		e := c.queued[i]
		if e.state != queued || c.face.Skip != nil && c.face.Skip(e) {
			continue
		}
		if pivot == nil {
			if g := c.choose(e); g != nil {
				c.start(e, g)
				continue
			}
			if !*c.face.Backfill || c.full() {
				return
			}
			pivot = e
			rsv = c.reserve(pivot)
			for i := range c.memo {
				c.memo[i] = verdicts{none, none}
			}
			c.fail(pivot)
			continue
		}
		c.tryBackfill(e, pivot, &rsv)
		if c.full() {
			return
		}
	}
}

// full reports that no Up node has a free slot or is idle, so no
// entry can be placed until something ends or a node comes up.
func (c *Core) full() bool { return c.freeSlots == 0 && c.idleN == 0 }

// verdicts is what the current pass has learnt about one demand family
// (a shape and, for PerNode, a PPN): the smallest count whose placement
// failed and the smallest whose long placement the reservation refused,
// none until there is one.
type verdicts struct{ failed, refused int }

const none = math.MaxInt

// family indexes an entry's demand family in Core.memo: Whole, then
// Anywhere, then PerNode by PPN.
func family(e *Entry) int {
	switch e.Shape {
	case Whole:
		return 0
	case Anywhere:
		return 1
	}
	return 2 + e.PPN
}

// verdict returns the verdicts of the entry's family, growing the memo
// to cover it. A new PerNode family inherits the failures of the
// largest PPN below it.
func (c *Core) verdict(e *Entry) *verdicts {
	f := family(e)
	for n := len(c.memo); n <= f; n++ {
		v := verdicts{none, none}
		if n > 2 {
			v.failed = c.memo[n-1].failed
		}
		c.memo = append(c.memo, v)
	}
	return &c.memo[f]
}

// fail records that the entry's placement failed in this pass. A
// PerNode failure also holds for every larger PPN.
func (c *Core) fail(e *Entry) {
	v := c.verdict(e)
	v.failed = min(v.failed, e.Count)
	if e.Shape == PerNode {
		for i := family(e) + 1; i < len(c.memo); i++ {
			c.memo[i].failed = min(c.memo[i].failed, e.Count)
		}
	}
}

// demand is what the reservation reads from its pivot.
type demand struct {
	shape      Shape
	count, ppn int
}

// reservation is the pivot's EASY booking: the shadow time and the
// per-node free-slot projection at that instant (-1 marks nodes that
// are not Up). fit counts nodes whose projected free slots meet the
// pivot's per-node need and total sums the projection, so testing the
// pivot against it is O(1). When ok is false no projected future fits
// the pivot (its nodes are in the other OS): there is nothing to
// protect, so backfill runs unrestricted, which lets the hybrid pack
// narrow work while the controller fetches nodes for the wide head.
type reservation struct {
	shadow     time.Duration
	free       []int
	fit, total int
	ok         bool
}

// need is the projected free slots node i must reach to count toward
// the pivot's fit.
func (c *Core) need(p *Entry, i int) int {
	if p.Shape == Whole {
		return c.nodes[i].slots
	}
	return p.PPN
}

// add moves d slots on node i into (d > 0) or out of (d < 0) the
// projection, keeping fit and total in step.
func (r *reservation) add(i, d, need int) {
	was := r.free[i]
	r.free[i] = was + d
	r.total += d
	if was < need && was+d >= need {
		r.fit++
	} else if was >= need && was+d < need {
		r.fit--
	}
}

func (r *reservation) fits(p *Entry) bool {
	if p.Shape == Anywhere {
		return r.total >= p.Count
	}
	return r.fit >= p.Count
}

// release is one running entry in the reservation's replay: its
// projected end and its index in Core.running.
type release struct {
	end time.Duration
	i   int
}

// reserve computes the pivot's shadow state by replaying the running
// entries' projected releases onto the current free slots, in release
// order, until the pivot fits. Only the releases up to that instant
// need ordering, so they come off a binary heap built in linear time
// instead of a full sort; releases at one instant are applied as a
// group, in whatever order, since the projection after the group does
// not depend on it. The projection and the heap live in pooled
// buffers. A pass whose pivot demand and core state are unchanged
// since the last reserve gets that reservation back as it was.
func (c *Core) reserve(p *Entry) reservation {
	d := demand{p.Shape, p.Count, p.PPN}
	// The zero demand never matches: a zero count always places, so it
	// is never a pivot.
	if c.last.d == d && c.last.changes == c.changes {
		return c.last.rsv
	}
	if cap(c.rsvFree) < len(c.nodes) {
		c.rsvFree = make([]int, len(c.nodes))
	}
	r := reservation{free: c.rsvFree[:len(c.nodes)]}
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.state != Up {
			r.free[i] = -1
			continue
		}
		r.free[i] = n.slots - n.used
		r.total += r.free[i]
		if r.free[i] >= c.need(p, i) {
			r.fit++
		}
	}
	h := c.rsvRun[:0]
	for i := range c.running {
		h = append(h, release{c.running[i].end, i})
	}
	c.rsvRun = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		end := h[0].end
		for len(h) > 0 && h[0].end == end {
			for _, g := range c.running[h[0].i].grants {
				if r.free[g.Node] >= 0 {
					r.add(g.Node, g.Slots, c.need(p, g.Node))
				}
			}
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			siftDown(h, 0)
		}
		if r.fits(p) {
			r.shadow, r.ok = end, true
			break
		}
	}
	c.last.rsv, c.last.d, c.last.changes = r, d, c.changes
	return r
}

// siftDown restores the min-heap order on end below index i.
func siftDown(h []release, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].end < h[m].end {
			m = r
		}
		if h[i].end <= h[m].end {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// tryBackfill starts a candidate behind the blocked pivot if it cannot
// delay the pivot's reservation: either it releases its slots by the
// shadow time, or the pivot still fits at the shadow time with the
// candidate's grants subtracted. Long candidates that pass stay
// subtracted, so later candidates in the same pass see only the
// remaining slack. What the pass's memo already rules out is skipped
// without a placement attempt (see pass).
func (c *Core) tryBackfill(e, p *Entry, r *reservation) {
	long := r.ok && c.eng.Now()+e.limit() > r.shadow
	if v := c.verdict(e); e.Count >= v.failed || long && e.Count >= v.refused {
		return
	}
	g := c.choose(e)
	if g == nil {
		c.fail(e)
		return
	}
	if long {
		for _, x := range g {
			r.add(x.Node, -x.Slots, c.need(p, x.Node))
		}
		if !r.fits(p) {
			for _, x := range g {
				r.add(x.Node, x.Slots, c.need(p, x.Node))
			}
			v := c.verdict(e)
			v.refused = min(v.refused, e.Count)
			return
		}
	}
	c.start(e, g)
	for i := range c.memo {
		c.memo[i].refused = none
	}
}

// choose places an entry without committing it, first fit in node
// order; nil when it does not fit right now. The grants live in a
// pooled buffer valid until the next choose.
func (c *Core) choose(e *Entry) []Grant {
	tree, want := c.free, e.PPN
	switch e.Shape {
	case Whole:
		if c.idleN < e.Count {
			return nil
		}
		tree, want = c.idle, 1
	case Anywhere:
		if c.freeSlots < e.Count {
			return nil
		}
		want = 1
	}
	g := c.grantBuf[:0]
	for left, from := e.Count, 0; left > 0; {
		i := nextFit(tree, c.treeCap, len(c.nodes), from, want)
		if i < 0 {
			return nil
		}
		n, take := &c.nodes[i], e.PPN
		switch e.Shape {
		case Whole:
			take = n.slots
		case Anywhere:
			take = min(n.slots-n.used, left)
		}
		g = append(g, Grant{i, take})
		from = i + 1
		if e.Shape == Anywhere {
			left -= take
		} else {
			left--
		}
	}
	c.grantBuf = g
	return g
}

// start occupies the grants, moves the entry from the queue to the
// running ledger, hands it to the face, and schedules its end.
func (c *Core) start(e *Entry, g []Grant) {
	for _, x := range g {
		c.use(x.Node, x.Slots)
	}
	c.Withdraw(e)
	e.state = running
	e.runIdx = len(c.running)
	if e.runIdx < cap(c.running) {
		c.running = c.running[:e.runIdx+1]
	} else {
		c.running = append(c.running, run{})
	}
	r := &c.running[e.runIdx]
	r.e, r.end, r.grants = e, c.eng.Now()+e.limit(), append(r.grants[:0], g...)
	c.changes++
	c.face.Started(e)
	c.eng.After(e.runFor(), func() {
		// Only the timer of the current run may end it. The run this
		// timer belongs to started runFor ago; an entry interrupted,
		// requeued and started again since has a later projected end,
		// and its own timer.
		if e.state == running && c.running[e.runIdx].end == c.eng.Now()-e.runFor()+e.limit() {
			c.Stop(e)
			c.face.Finished(e)
			c.Kick()
		}
	})
}

// use adds d allocated slots on node i (negative releases them) and
// keeps the free-slot counters and trees in step.
func (c *Core) use(i, d int) {
	n := &c.nodes[i]
	was := n.used
	n.used += d
	if n.state == Up {
		c.freeSlots -= d
		if was == 0 {
			c.idleN--
		} else if n.used == 0 {
			c.idleN++
		}
	}
	c.refresh(i)
}

// leaves returns node i's values in the free and idle trees.
func (c *Core) leaves(i int) (free, idle int) {
	n := &c.nodes[i]
	if n.state != Up {
		return 0, 0
	}
	if n.used == 0 {
		idle = 1
	}
	return n.slots - n.used, idle
}

// refresh re-derives node i's leaves after a slot or state change.
func (c *Core) refresh(i int) {
	if i >= c.treeCap {
		c.rebuildTrees()
		return
	}
	f, d := c.leaves(i)
	setLeaf(c.free, c.treeCap, i, f)
	setLeaf(c.idle, c.treeCap, i, d)
}

// rebuildTrees sizes both trees to the node table and recomputes every
// level.
func (c *Core) rebuildTrees() {
	c.treeCap = 1
	for c.treeCap < len(c.nodes) {
		c.treeCap <<= 1
	}
	c.free = make([]int, 2*c.treeCap)
	c.idle = make([]int, 2*c.treeCap)
	for i := range c.nodes {
		c.free[c.treeCap+i], c.idle[c.treeCap+i] = c.leaves(i)
	}
	for i := c.treeCap - 1; i >= 1; i-- {
		c.free[i] = max(c.free[2*i], c.free[2*i+1])
		c.idle[i] = max(c.idle[2*i], c.idle[2*i+1])
	}
}

// setLeaf sets a leaf and repairs its ancestors until one is unchanged.
func setLeaf(t []int, treeCap, i, v int) {
	i += treeCap
	if t[i] == v {
		return
	}
	t[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		m := max(t[2*i], t[2*i+1])
		if t[i] == m {
			break
		}
		t[i] = m
	}
}

// nextFit returns the first node index in [from, limit) whose leaf in
// t reaches want, or -1. O(log nodes).
func nextFit(t []int, treeCap, limit, from, want int) int {
	if from >= limit {
		return -1
	}
	i := treeCap + from
	for {
		if t[i] >= want {
			for i < treeCap {
				if t[2*i] >= want {
					i = 2 * i
				} else {
					i = 2*i + 1
				}
			}
			if idx := i - treeCap; idx < limit {
				return idx
			}
			return -1
		}
		for {
			if i == 1 {
				return -1
			}
			if i%2 == 0 {
				i++
				break
			}
			i >>= 1
		}
	}
}
