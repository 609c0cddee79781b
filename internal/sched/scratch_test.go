package sched

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/simtime"
)

// The differential tests in this file drive two cores through one
// script of submissions, holds, cancellations, node changes and time
// steps. One core schedules off its incremental state; the other
// throws all of it away and rebuilds it from the ground truth before
// every pass. If the incremental ledgers, census or segment trees ever
// drifted from a from-scratch recompute, the twins' start times and
// placements would diverge.

// truth is the scheduler state recomputed from the ground truth: the
// entries' own states, the placements and start times the face was
// handed, and the node table's states and sizes.
type truth struct {
	queue, running []*Entry
	used           []int
	cen            Census
	freeSlots      int
}

func groundTruth(h *harness) truth {
	c := h.c
	t := truth{used: make([]int, len(c.nodes))}
	for i, e := range h.jobs {
		switch e.state {
		case queued:
			t.queue = append(t.queue, e)
			t.cen.tally(e, 1)
		case running:
			t.running = append(t.running, e)
			for _, g := range h.placed[i] {
				t.used[g.Node] += g.Slots
			}
		}
	}
	slices.SortFunc(t.queue, before)
	t.cen.Running = len(t.running)
	for i, n := range c.nodes {
		if n.state != Down {
			t.cen.SlotsUp += n.slots
		}
		if n.state == Up {
			t.cen.NodesOnline++
			t.cen.SlotsOnline += n.slots
			t.freeSlots += n.slots - t.used[i]
			if t.used[i] == 0 {
				t.cen.IdleNodes++
			}
		}
	}
	return t
}

// rebuild replaces every piece of incremental state with its
// from-scratch recompute.
func rebuild(h *harness) {
	c := h.c
	t := groundTruth(h)
	for _, e := range c.queued {
		e.inQueue = false
	}
	for _, e := range t.queue {
		e.inQueue = true
	}
	c.queued, c.dead, c.head = t.queue, 0, 0
	easy := c.keys != nil
	c.keys, c.blocks, c.proj, c.hist, c.rel = nil, nil, nil, nil, releases{}
	c.running = nil
	for i, e := range t.running {
		e.runIdx = i
		k := e.Seq - 1
		c.running = append(c.running, run{e: e, end: h.startAt[k] + e.limit(), grants: slices.Clone(h.placed[k])})
	}
	for i := range c.nodes {
		c.nodes[i].used = t.used[i]
	}
	c.cen, c.freeSlots = t.cen, t.freeSlots
	c.rebuildTrees()
	if easy {
		c.easy() // keys, summaries, projection, histogram and release heap
	}
}

// checkScratch cross-checks the incremental state against a
// non-mutating recompute from the ground truth.
func checkScratch(h *harness) error {
	c := h.c
	t := groundTruth(h)
	if got := c.Queue(); !slices.Equal(got, t.queue) {
		return fmt.Errorf("queue ledger %v, scratch %v", seqs(got), seqs(t.queue))
	}
	if got := c.Running(); !slices.Equal(got, sortedBySeq(t.running)) {
		return fmt.Errorf("running ledger %v, scratch %v", seqs(got), seqs(t.running))
	}
	for _, e := range t.running {
		k := e.Seq - 1
		if r := c.running[e.runIdx]; r.e != e || !slices.Equal(r.grants, h.placed[k]) || r.end != h.startAt[k]+e.limit() {
			return fmt.Errorf("running ledger holds %d as %v ending %v, it started at %v on %v", e.Seq, r.grants, r.end, h.startAt[k], h.placed[k])
		}
	}
	if got := c.Census(); got != t.cen {
		return fmt.Errorf("census %+v, scratch %+v", got, t.cen)
	}
	if c.freeSlots != t.freeSlots {
		return fmt.Errorf("free slots %d, scratch %d", c.freeSlots, t.freeSlots)
	}
	dead := 0
	for _, e := range c.queued {
		if e.state != queued {
			dead++
		}
		if !e.inQueue {
			return fmt.Errorf("entry %d sits in the queue ledger unflagged", e.Seq)
		}
	}
	if dead != c.dead {
		return fmt.Errorf("dead count %d, ledger holds %d stale entries", c.dead, dead)
	}
	if c.keys != nil && len(c.keys) != len(c.queued) {
		return fmt.Errorf("%d keys beside %d queue slots", len(c.keys), len(c.queued))
	}
	for i, k := range c.keys {
		if e := c.queued[i]; e.state == queued && k != keyOf(e) {
			return fmt.Errorf("slot %d holds key %+v, its entry %d gives %+v", i, k, e.Seq, keyOf(e))
		}
	}
	if err := checkEasy(c, t); err != nil {
		return err
	}
	for i, n := range c.nodes {
		if n.used != t.used[i] || n.used > n.slots {
			return fmt.Errorf("node %d uses %d of %d slots, grants say %d", i, n.used, n.slots, t.used[i])
		}
		if f, d := c.leaves(i); c.free[c.treeCap+i] != f || c.idle[c.treeCap+i] != d {
			return fmt.Errorf("node %d tree leaves (%d, %d), want (%d, %d)", i, c.free[c.treeCap+i], c.idle[c.treeCap+i], f, d)
		}
	}
	for i := c.treeCap - 1; i >= 1; i-- {
		if c.free[i] != max(c.free[2*i], c.free[2*i+1]) || c.idle[i] != max(c.idle[2*i], c.idle[2*i+1]) {
			return fmt.Errorf("segment tree node %d is not the max of its children", i)
		}
	}
	return nil
}

// checkEasy cross-checks the EASY state against the ground truth: the
// projection and histogram against the node table and the grants, the
// release heap's order and every run's position in it, and every clean
// block summary against its keys.
func checkEasy(c *Core, t truth) error {
	if c.keys == nil {
		if c.blocks != nil || c.proj != nil || c.hist != nil || c.rel.h != nil || c.rel.at != nil {
			return fmt.Errorf("core keeps EASY state without keys")
		}
		return nil
	}
	if len(c.proj) != len(c.nodes) {
		return fmt.Errorf("projection covers %d of %d nodes", len(c.proj), len(c.nodes))
	}
	hist := map[int]int{}
	for i, n := range c.nodes {
		want := -1
		if n.state == Up {
			want = n.slots - t.used[i]
			hist[want]++
		}
		if int(c.proj[i]) != want {
			return fmt.Errorf("node %d projected at %d free slots, scratch %d", i, c.proj[i], want)
		}
	}
	for f, n := range c.hist {
		if n != hist[f] {
			return fmt.Errorf("histogram counts %d Up nodes with %d free slots, scratch %d", n, f, hist[f])
		}
		delete(hist, f)
	}
	if len(hist) > 0 {
		return fmt.Errorf("histogram misses the Up nodes by free slots %v", hist)
	}
	if len(c.rel.h) != len(c.running) || len(c.rel.at) != len(c.running) {
		return fmt.Errorf("release heap holds %d of %d runs, at %d positions", len(c.rel.h), len(c.running), len(c.rel.at))
	}
	for k, x := range c.rel.h {
		if x.i < 0 || x.i >= len(c.running) || c.rel.at[x.i] != k || c.running[x.i].end != x.end {
			return fmt.Errorf("release heap position %d holds %+v, which its run does not match", k, x)
		}
		if k > 0 && c.rel.h[(k-1)/2].end > x.end {
			return fmt.Errorf("release heap position %d ends before its parent", k)
		}
	}
	if len(c.blocks) != (len(c.keys)+blockLen-1)/blockLen {
		return fmt.Errorf("%d block summaries over %d keys", len(c.blocks), len(c.keys))
	}
	for b, s := range c.blocks {
		if s.dirty {
			continue
		}
		type low struct {
			count int32
			limit time.Duration
		}
		want := map[int32]low{}
		for _, k := range c.keys[b*blockLen : min(b*blockLen+blockLen, len(c.keys))] {
			if k.fam == stale {
				continue
			}
			l, ok := want[k.fam]
			if !ok {
				l = low{k.count, k.limit}
			}
			want[k.fam] = low{min(l.count, k.count), min(l.limit, k.limit)}
		}
		if len(want) > sumFams {
			if s.n != sumFams+1 {
				return fmt.Errorf("block %d holds %d families, its summary claims %d", b, len(want), s.n)
			}
			continue
		}
		got := map[int32]low{}
		for j := range int(s.n) {
			got[s.fam[j]] = low{s.count[j], s.limit[j]}
		}
		if !maps.Equal(got, want) {
			return fmt.Errorf("block %d summary %v, its keys give %v", b, got, want)
		}
	}
	return nil
}

func seqs(es []*Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

func sortedBySeq(es []*Entry) []*Entry {
	out := slices.Clone(es)
	slices.SortFunc(out, bySeq)
	return out
}

type opKind uint8

const (
	opSubmit  opKind = iota
	opHold           // withdraw a queued entry, as Torque's qhold
	opRelease        // requeue a held entry
	opCancel         // withdraw a queued entry or stop a running one
	opDown           // node lost: its entries are interrupted
	opUp
	opOffline
	opGate // toggle admission: while gated, Skip passes over every third Seq
	opStep // only advances time
	opFill // toggle backfill
	numOps
)

// op is one scripted step at virtual time at. job names a submission
// by its index in the script's submit order; node indexes the table.
type op struct {
	at   time.Duration
	kind opKind
	job  int
	node int
	e    Entry // the submission, for opSubmit
}

// script is a node table, a backfill setting and the ops to run.
type script struct {
	slots    []int
	backfill bool
	ops      []op
}

// harness is a minimal face over one core: enough to reach every core
// path the way the pbs and winhpc faces do.
type harness struct {
	eng   *simtime.Engine
	c     *Core
	fill  bool
	gated bool
	jobs  []*Entry // by submission index: the ground truth
	held  []bool
	// placed and startAt record, by submission index, each entry's
	// grants and start time as handed to Started.
	placed  [][]Grant
	startAt []time.Duration
	log     []string
	err     error // first consistency failure, when checking
	// reach counts the key paths the script took while the core kept
	// keys: slots revived by a release or by a requeue, those among
	// them below the head cursor, and entries queued ahead of the
	// tail; keys built on a queue that waited under FCFS first; and
	// nodes that went Down and came back Up, by the reservations the
	// core had computed when each came back.
	reach struct {
		released, requeued, belowHead, inserted, builtLate int
		returned                                           []int
	}
	// wasDown marks nodes that went Down while the core kept its
	// projection.
	wasDown map[int]bool
}

func newHarness(sc script) *harness {
	h := &harness{eng: simtime.NewEngine(), fill: sc.backfill, wasDown: map[int]bool{}}
	h.c = New(h.eng, Face{
		Backfill: &h.fill,
		Skip:     func(e *Entry) bool { return h.gated && e.Seq%3 == 0 },
		Started: func(e *Entry) {
			g := slices.Clone(h.c.Grants(e))
			h.placed[e.Seq-1], h.startAt[e.Seq-1] = g, h.eng.Now()
			h.log = append(h.log, fmt.Sprintf("start %d at %v on %v", e.Seq, h.eng.Now(), g))
		},
		Finished: func(e *Entry) { h.log = append(h.log, fmt.Sprintf("end %d at %v", e.Seq, h.eng.Now())) },
	})
	for _, n := range sc.slots {
		h.c.AddNode(n, Up)
	}
	return h
}

// run plays the script to quiescence. A non-nil pass replaces every
// scheduling pass; with check set, the incremental state is
// cross-checked after every op and after every pass, the passes that
// completions kick between ops included.
func (h *harness) run(sc script, pass func(*harness), check bool) {
	if pass == nil {
		pass = func(h *harness) { h.c.pass() }
	}
	h.c.override = func() {
		pass(h)
		if check && h.err == nil {
			h.err = checkScratch(h)
		}
	}
	for _, o := range sc.ops {
		h.eng.At(o.at, func() {
			h.apply(o)
			if check && h.err == nil {
				h.err = checkScratch(h)
			}
		})
	}
	h.eng.Run()
	if check && h.err == nil {
		h.err = checkScratch(h)
	}
}

func (h *harness) apply(o op) {
	c := h.c
	var e *Entry
	if o.kind != opSubmit && o.job < len(h.jobs) {
		e = h.jobs[o.job]
	}
	switch o.kind {
	case opSubmit:
		e = new(Entry)
		*e = o.e
		e.Seq = len(h.jobs) + 1
		h.jobs = append(h.jobs, e)
		h.held = append(h.held, false)
		h.placed = append(h.placed, nil)
		h.startAt = append(h.startAt, 0)
		h.requeue(e, func() { c.Submit(e) })
	case opHold:
		if e != nil && e.state == queued {
			c.Withdraw(e)
			h.held[o.job] = true
		}
	case opRelease:
		if e != nil && h.held[o.job] {
			h.held[o.job] = false
			if e.inQueue && c.keys != nil {
				h.reach.released++
			}
			h.requeue(e, func() { c.Submit(e) })
		}
	case opCancel:
		if e == nil {
			return
		}
		h.held[o.job] = false
		switch e.state {
		case queued:
			c.Withdraw(e)
		case running:
			c.Stop(e)
			c.Kick()
		}
	case opDown:
		if c.proj != nil && c.nodes[o.node].state != Down {
			h.wasDown[o.node] = true
		}
		c.SetNode(o.node, Down)
		for _, v := range c.Holding(o.node) {
			if v.Rerun && v.inQueue && c.keys != nil {
				h.reach.requeued++
			}
			h.requeue(v, func() { c.Interrupt(v) })
		}
		c.Kick()
	case opUp:
		if h.wasDown[o.node] {
			delete(h.wasDown, o.node)
			h.reach.returned = append(h.reach.returned, c.seen.reserves)
		}
		c.SetNode(o.node, Up)
	case opOffline:
		c.SetNode(o.node, Offline)
	case opGate:
		h.gated = !h.gated
		c.Kick()
	case opFill:
		h.fill = !h.fill
		if h.fill && c.keys == nil && len(c.queued) > 0 {
			h.reach.builtLate++
		}
		c.Kick()
	}
}

// requeue runs a call that may put e in the queue and, while the core
// keeps keys, counts a revival below the head cursor or an insertion
// ahead of the tail.
func (h *harness) requeue(e *Entry, do func()) {
	c := h.c
	if c.keys == nil {
		do()
		return
	}
	revive := e.inQueue
	if at, _ := slices.BinarySearchFunc(c.queued, e, before); revive && at < c.head {
		h.reach.belowHead++
	}
	do()
	if !revive && e.inQueue && c.queued[len(c.queued)-1] != e {
		h.reach.inserted++
	}
}

// differ runs a script on an incremental core (checked after every op and pass)
// and on a scratch-rebuilt twin, and reports the first divergence.
func differ(sc script) error {
	return compare(sc, "scratch", func(h *harness) {
		rebuild(h)
		h.c.pass()
	})
}

// compare runs a script on an incremental core (checked after every
// op and pass) and on a twin whose every pass is twinPass, and reports the
// first divergence in start times, placements and end times.
func compare(sc script, twin string, twinPass func(*harness)) error {
	inc, ref := newHarness(sc), newHarness(sc)
	inc.run(sc, nil, true)
	ref.run(sc, twinPass, false)
	if inc.err != nil {
		return inc.err
	}
	for i := range min(len(inc.log), len(ref.log)) {
		if inc.log[i] != ref.log[i] {
			return fmt.Errorf("event %d diverged: incremental %q, %s %q", i, inc.log[i], twin, ref.log[i])
		}
	}
	if len(inc.log) != len(ref.log) {
		return fmt.Errorf("incremental logged %d events, %s %d", len(inc.log), twin, len(ref.log))
	}
	return nil
}

// pbsScript generates a deterministic randomized Torque-shaped
// workload: nodes=N:ppn=M jobs at priority 0, some with walltimes,
// holds and releases, deletions, and node outages (which requeue
// rerunnable jobs and exercise the revival paths of the queue ledger).
// It draws the same stream as the generator behind internal/pbs's
// TestPBSIncrementalMatchesScratchRecompute.
func pbsScript(seed int64, nodes, jobs int, backfill bool) script {
	rng := rand.New(rand.NewSource(seed))
	sc := script{slots: uniform(nodes, 4), backfill: backfill}
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		e := Entry{
			Shape:   PerNode,
			Count:   1 + rng.Intn(3),
			PPN:     1 + rng.Intn(4),
			Runtime: time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:   rng.Intn(4) != 0,
		}
		if rng.Intn(3) == 0 {
			e.Walltime = e.Runtime + time.Duration(rng.Int63n(int64(time.Hour)))
		}
		sc.ops = append(sc.ops, op{at: at, kind: opSubmit, job: i, e: e})
		switch rng.Intn(10) {
		case 0:
			h := at + time.Duration(rng.Int63n(int64(30*time.Minute)))
			sc.ops = append(sc.ops, op{at: h, kind: opHold, job: i})
			sc.ops = append(sc.ops, op{at: h + time.Duration(rng.Int63n(int64(2*time.Hour))), kind: opRelease, job: i})
		case 1:
			sc.ops = append(sc.ops, op{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: opCancel, job: i})
		}
	}
	sc.ops = append(sc.ops, outages(rng, nodes)...)
	return renumber(sc)
}

// winScript generates a deterministic randomized HPC Pack-shaped
// workload: core- and node-unit jobs across all five priority levels,
// cancellations, and node outages (which requeue rerunnable jobs
// through the priority-ordered revival path of the queue ledger). It
// draws the same stream as the generator behind internal/winhpc's
// TestWinHPCIncrementalMatchesScratchRecompute.
func winScript(seed int64, nodes, jobs int, backfill bool) script {
	rng := rand.New(rand.NewSource(seed))
	sc := script{slots: uniform(nodes, 4), backfill: backfill}
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		e := Entry{
			Runtime: time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:   rng.Intn(4) != 0,
			Prio:    int8(rng.Intn(5) - 2),
		}
		if rng.Intn(3) == 0 {
			e.Shape, e.Count = Whole, 1+rng.Intn(2)
		} else {
			e.Shape, e.Count = Anywhere, 1+rng.Intn(8)
		}
		sc.ops = append(sc.ops, op{at: at, kind: opSubmit, job: i, e: e})
		if rng.Intn(10) == 0 {
			sc.ops = append(sc.ops, op{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: opCancel, job: i})
		}
	}
	sc.ops = append(sc.ops, outages(rng, nodes)...)
	return renumber(sc)
}

func uniform(nodes, slots int) []int {
	out := make([]int, nodes)
	for i := range out {
		out[i] = slots
	}
	return out
}

// outages draws three node losses, each followed by a return.
func outages(rng *rand.Rand, nodes int) []op {
	var out []op
	for i := 0; i < 3; i++ {
		n := rng.Intn(nodes)
		down := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		out = append(out, op{at: down, kind: opDown, node: n},
			op{at: down + time.Duration(rng.Int63n(int64(time.Hour))) + time.Minute, kind: opUp, node: n})
	}
	return out
}

// renumber sorts a generated script into time order and rewrites job
// references from generation order to submission order.
func renumber(sc script) script {
	slices.SortStableFunc(sc.ops, func(a, b op) int { return int(a.at - b.at) })
	index := map[int]int{}
	for i, o := range sc.ops {
		if o.kind == opSubmit {
			index[o.job] = len(index)
		}
		sc.ops[i].job = index[o.job]
	}
	return sc
}

// TestCoreMatchesScratchTorqueScript runs the Torque-shaped workload
// on twin cores — one off its incremental state, one rebuilt from
// scratch before every pass — and requires identical start times,
// placements and end times.
func TestCoreMatchesScratchTorqueScript(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		t.Run(passName(backfill), func(t *testing.T) {
			if err := differ(pbsScript(421, 12, 120, backfill)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoreMatchesScratchHPCScript is the same check over the HPC
// Pack-shaped workload.
func TestCoreMatchesScratchHPCScript(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		t.Run(passName(backfill), func(t *testing.T) {
			if err := differ(winScript(733, 12, 120, backfill)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func passName(backfill bool) string {
	if backfill {
		return "backfill"
	}
	return "fcfs"
}

// opBytes is the size of one encoded op: kind, delay in minutes, and
// four argument bytes.
const opBytes = 6

// maxOps caps a decoded script: room for a backlog several blocks of
// keys deep, its holds and releases, and the outages around it.
const maxOps = 1024

// decode turns fuzz bytes into a script. The first byte picks backfill
// (bit 0), the node count (4–12) and whether node sizes are uniform or
// mixed; every following six-byte record is one op, delayed from the
// previous one by its second byte in minutes.
func decode(data []byte) script {
	if len(data) == 0 {
		return script{slots: uniform(4, 4)}
	}
	h := data[0]
	sc := script{backfill: h&1 == 1, slots: uniform(4+int(h>>1)%9, 4)}
	if h&0x80 != 0 {
		for i := range sc.slots {
			sc.slots[i] = []int{4, 2, 8, 4}[i%4]
		}
	}
	at, submits := time.Duration(0), 0
	for rec := data[1:]; len(rec) >= opBytes && len(sc.ops) < maxOps; rec = rec[opBytes:] {
		at += time.Duration(rec[1]) * time.Minute
		o := op{at: at, kind: opKind(rec[0] % byte(numOps)), node: int(rec[2]) % len(sc.slots)}
		switch o.kind {
		case opSubmit:
			o.job = submits
			submits++
			o.e = decodeEntry(rec[2:opBytes])
		case opHold, opRelease, opCancel:
			if submits == 0 {
				continue
			}
			o.job = (int(rec[2])<<8 | int(rec[3])) % submits
		}
		sc.ops = append(sc.ops, o)
	}
	return sc
}

// decodeEntry reads a submission: b[0] shape and priority, b[1] count,
// b[2] PPN, walltime choice and rerun, b[3] runtime in minutes past 5.
func decodeEntry(b []byte) Entry {
	e := Entry{Shape: Shape(b[0] % 3), Prio: int8(b[0]/3%5) - 2, PPN: 1 + int(b[2]&3)}
	e.Count = 1 + int(b[1])%3
	if e.Shape == Anywhere {
		e.Count = 1 + int(b[1])%8
	}
	e.Runtime = time.Duration(5+int(b[3])) * time.Minute
	switch b[2] >> 2 & 3 {
	case 1:
		e.Walltime = e.Runtime
	case 2:
		e.Walltime = e.Runtime + 30*time.Minute
	case 3:
		e.Walltime = e.Runtime - 4*time.Minute // killed at the walltime
	}
	e.Rerun = b[2]>>4&3 != 0
	return e
}

// encode is decode's inverse up to minute rounding and field ranges;
// it turns the generators' scripts into fuzz seeds.
func encode(sc script) []byte {
	h := byte(0)
	if sc.backfill {
		h |= 1
	}
	h |= byte((len(sc.slots)-4)%9) << 1
	out := []byte{h}
	last := time.Duration(0)
	for _, o := range sc.ops {
		for o.at/time.Minute-last/time.Minute > 255 {
			out = append(out, byte(opStep), 255, 0, 0, 0, 0)
			last += 255 * time.Minute
		}
		rec := []byte{byte(o.kind), byte(o.at/time.Minute - last/time.Minute), byte(o.node), 0, 0, 0}
		last = o.at
		switch o.kind {
		case opSubmit:
			e := o.e
			rec[2] = byte(e.Shape) + 3*byte(e.Prio+2)
			rec[3] = byte(e.Count - 1)
			rec[4] = byte(max(e.PPN, 1) - 1)
			if e.Walltime > 0 {
				rec[4] |= 2 << 2
			}
			if e.Rerun {
				rec[4] |= 1 << 4
			}
			rec[5] = byte(min(max(e.Runtime/time.Minute-5, 0), 255))
		case opHold, opRelease, opCancel:
			rec[2], rec[3] = byte(o.job>>8), byte(o.job)
		}
		out = append(out, rec...)
	}
	return out
}

// FuzzCoreMatchesScratch decodes the fuzz bytes into a script of
// submissions (Torque-shaped and both HPC shapes), holds and
// releases, cancellations, node loss, return and drain, admission
// gating, backfill switches and time steps, and requires an
// incremental core and a twin rebuilt from the ground truth before
// every pass to start and place every entry identically. The
// incremental core is also cross-checked against the ground truth
// after every op and every pass.
func FuzzCoreMatchesScratch(f *testing.F) {
	for _, backfill := range []bool{false, true} {
		f.Add(encode(pbsScript(421, 12, 60, backfill)))
		f.Add(encode(winScript(733, 12, 60, backfill)))
	}
	for _, sc := range backlogSeeds() {
		f.Add(encode(sc))
	}
	f.Add([]byte{0x81, byte(opSubmit), 0, 1, 2, 0x13, 30, byte(opGate), 1, 0, 0, 0, 0, byte(opDown), 5, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := differ(decode(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncodeRoundTrip pins the seed encoding: a decoded generator
// script re-encodes to the same bytes, so the corpus seeds really are
// the generators' scripts.
func TestEncodeRoundTrip(t *testing.T) {
	for _, sc := range []script{pbsScript(421, 12, 60, true), winScript(733, 12, 60, false)} {
		b := encode(sc)
		if again := encode(decode(b)); !slices.Equal(again, b) {
			t.Fatalf("encode(decode(seed)) differs from the seed")
		}
		if got, want := len(decode(b).ops), len(sc.ops); got < want {
			t.Fatalf("decoded %d ops from a %d-op script", got, want)
		}
	}
}
