package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The EASY pass skips candidates its per-pass memo rules out, whole
// blocks of them at a time, and starts its reservation from a live
// projection, taking releases off a persistent heap. passReference is
// the pass without any of that: every live entry gets a placement
// attempt and every reservation rebuilds the projection from the node
// table and replays the whole running set, sorted by release. A core
// driven by it is the reference the real pass must match decision for
// decision.

// passReference is the plain EASY pass.
func (c *Core) passReference() {
	c.compact()
	c.advance()
	var pivot *Entry
	var rsv reservation
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
			if !*c.face.Backfill {
				return
			}
			pivot = e
			rsv = c.reserveSorted(pivot)
			continue
		}
		g := c.choose(e)
		if g == nil {
			continue
		}
		if rsv.ok && c.eng.Now()+e.limit() > rsv.shadow {
			for _, x := range g {
				rsv.add(x.Node, -x.Slots, c.need(pivot, x.Node))
			}
			if !rsv.fits(pivot) {
				for _, x := range g {
					rsv.add(x.Node, x.Slots, c.need(pivot, x.Node))
				}
				continue
			}
		}
		c.start(e, g)
	}
}

// reserveSorted computes the reservation from scratch: the current
// free slots, then every running entry's release in (end, Seq) order
// until the pivot fits.
func (c *Core) reserveSorted(p *Entry) reservation {
	r := reservation{free: make([]int32, len(c.nodes))}
	for i, n := range c.nodes {
		if n.state != Up {
			r.free[i] = -1
			continue
		}
		free := n.slots - n.used
		r.free[i] = int32(free)
		r.total += free
		if free >= c.need(p, i) {
			r.fit++
		}
	}
	runs := make([]run, len(c.running))
	copy(runs, c.running)
	slices.SortFunc(runs, func(a, b run) int {
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		return cmp.Compare(a.e.Seq, b.e.Seq)
	})
	for i := 0; i < len(runs); {
		end := runs[i].end
		for ; i < len(runs) && runs[i].end == end; i++ {
			for _, g := range runs[i].grants {
				if r.free[g.Node] >= 0 {
					r.add(g.Node, g.Slots, c.need(p, g.Node))
				}
			}
		}
		if r.fits(p) {
			r.shadow, r.ok = end, true
			return r
		}
	}
	return reservation{}
}

// differFromReference runs a script on a core with the real pass and
// on a twin with the plain one, and reports the first divergence.
func differFromReference(sc script) error {
	return compare(sc, "reference", func(h *harness) { h.c.passReference() })
}

// backlogScript generates a deep EASY backlog on a small machine: a
// few demand shapes repeated many times, arriving over two hours at
// several times the machine's capacity, most with walltimes half an
// hour past their runtimes, so that candidates both fail to place and
// are refused for delaying the pivot, plus holds and releases, node
// outages (which requeue rerunnable entries), admission gating and
// two backfill switches. Odd seeds start under FCFS, so the pass
// builds its keys mid-run over a queue that already has stale slots.
// hpc picks HPC Pack-shaped demands (Whole and Anywhere) instead of
// Torque-shaped ones (PerNode).
func backlogScript(seed int64, nodes, jobs int, hpc bool) script {
	rng := rand.New(rand.NewSource(seed))
	sc := script{slots: uniform(nodes, 4), backfill: seed%2 == 0}
	demands := []Entry{
		{Shape: PerNode, Count: 1, PPN: 4}, {Shape: PerNode, Count: 2, PPN: 4},
		{Shape: PerNode, Count: 3, PPN: 4}, {Shape: PerNode, Count: 1, PPN: 2},
		{Shape: PerNode, Count: 1, PPN: 1}, {Shape: PerNode, Count: 2, PPN: 1},
	}
	if hpc {
		demands = []Entry{
			{Shape: Whole, Count: 1}, {Shape: Whole, Count: 2}, {Shape: Whole, Count: 3},
			{Shape: Anywhere, Count: 1}, {Shape: Anywhere, Count: 4}, {Shape: Anywhere, Count: 8},
		}
	}
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(2 * time.Hour)))
		e := demands[rng.Intn(len(demands))]
		e.Runtime = time.Duration(30+rng.Intn(120)) * time.Minute
		e.Rerun = rng.Intn(4) != 0
		if rng.Intn(4) != 0 {
			e.Walltime = e.Runtime + 30*time.Minute
		}
		sc.ops = append(sc.ops, op{at: at, kind: opSubmit, job: i, e: e})
		if rng.Intn(8) == 0 {
			h := at + time.Duration(rng.Int63n(int64(30*time.Minute)))
			sc.ops = append(sc.ops, op{at: h, kind: opHold, job: i},
				op{at: h + time.Duration(rng.Int63n(int64(2*time.Hour))), kind: opRelease, job: i})
		}
	}
	sc.ops = append(sc.ops, outages(rng, nodes)...)
	for i := 0; i < 4; i++ {
		sc.ops = append(sc.ops, op{at: time.Duration(rng.Int63n(int64(4 * time.Hour))), kind: opGate})
	}
	for i := 0; i < 2; i++ {
		sc.ops = append(sc.ops, op{at: time.Duration(rng.Int63n(int64(4 * time.Hour))), kind: opFill})
	}
	return renumber(sc)
}

// TestBacklogSeedsReachKeyPaths runs the backlog seeds of both fuzz
// targets and requires that, between them, they revive slots by a
// release and by a requeue while the core keeps keys, and build the
// keys late over a queue that waited under FCFS. Without those the
// fuzzers would start far from the paths that move keys.
func TestBacklogSeedsReachKeyPaths(t *testing.T) {
	var released, requeued, builtLate int
	for i, sc := range backlogSeeds() {
		sc = decode(encode(sc))
		h := newHarness(sc)
		h.run(sc, nil, true)
		if h.err != nil {
			t.Fatalf("backlog seed %d: %v", i, h.err)
		}
		released += h.reach.released
		requeued += h.reach.requeued
		builtLate += h.reach.builtLate
	}
	if released == 0 || requeued == 0 || builtLate == 0 {
		t.Fatalf("seeds revived %d slots by release and %d by requeue and built keys late %d times; want each above 0",
			released, requeued, builtLate)
	}
	t.Logf("revived by release %d, by requeue %d; keys built late %d times", released, requeued, builtLate)
}

// backlogSeeds are the deep-backlog scripts both fuzz targets start
// from, for each face's demand shapes: four of 120 jobs, and two of 400
// whose queues run past four blocks of keys and in which every fifth
// submission jumps the queue at a higher priority.
func backlogSeeds() []script {
	var out []script
	for _, hpc := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			out = append(out, backlogScript(seed, 8, 120, hpc))
		}
		for seed := int64(5); seed <= 6; seed++ {
			sc := backlogScript(seed, 8, 400, hpc)
			for i, o := range sc.ops {
				if o.kind == opSubmit && o.job%5 == 0 {
					sc.ops[i].e.Prio = 1
				}
			}
			out = append(out, sc)
		}
	}
	return out
}

// TestBacklogSeedsReachBlockPaths runs the backlog seeds of both fuzz
// targets and requires that, between them, they skip whole blocks of
// keys; dirty a block by reviving a slot below the head cursor and by
// queueing an entry ahead of the tail; recompute summaries after a
// compaction; replay a reservation below the release heap's second
// level; and reserve after a node went Down and came back Up. Without
// those the fuzzers would start far from the paths that keep the
// block summaries and the reservation's state.
func TestBacklogSeedsReachBlockPaths(t *testing.T) {
	var skips, belowHead, inserted, compacted, deep, returned, longest int
	for i, sc := range backlogSeeds() {
		sc = decode(encode(sc))
		h := newHarness(sc)
		h.run(sc, func(h *harness) {
			c, slots := h.c, len(h.c.queued)
			c.pass()
			// Only compaction shrinks the queue, and it leaves every
			// summary dirty: a clean one was recomputed since.
			if len(c.queued) < slots && slices.ContainsFunc(c.blocks, func(s summary) bool { return !s.dirty }) {
				compacted++
			}
			longest = max(longest, len(c.queued))
		}, true)
		if h.err != nil {
			t.Fatalf("backlog seed %d: %v", i, h.err)
		}
		skips += h.c.seen.blockSkips
		deep += h.c.seen.deepReplays
		belowHead += h.reach.belowHead
		inserted += h.reach.inserted
		for _, at := range h.reach.returned {
			if h.c.seen.reserves > at {
				returned++
			}
		}
	}
	if skips == 0 || belowHead == 0 || inserted == 0 || compacted == 0 || deep == 0 || returned == 0 || longest <= 4*blockLen {
		t.Fatalf("seeds skipped %d blocks, revived %d slots below the head, queued %d ahead of the tail, recomputed after %d compactions, "+
			"replayed below the second heap level %d times and reserved after %d node returns; longest queue %d slots; "+
			"want each above 0 and the queue past %d slots", skips, belowHead, inserted, compacted, deep, returned, longest, 4*blockLen)
	}
	t.Logf("skipped %d blocks; revived %d slots below the head, queued %d ahead of the tail; recomputed after %d compactions; %d deep replays; reserved after %d node returns; longest queue %d slots",
		skips, belowHead, inserted, compacted, deep, returned, longest)
}

// TestFCFSCoreKeepsNoKeys pins that the EASY state costs an FCFS-only
// core nothing: a deep backlog scheduled without backfill never builds
// keys, block summaries, a projection, a histogram or a release heap.
func TestFCFSCoreKeepsNoKeys(t *testing.T) {
	for _, sc := range []script{pbsScript(421, 12, 120, false), winScript(733, 12, 120, false)} {
		h := newHarness(sc)
		h.run(sc, nil, true)
		if h.err != nil {
			t.Fatal(h.err)
		}
		c := h.c
		if c.keys != nil || c.blocks != nil || c.proj != nil || c.hist != nil || c.rel.h != nil || c.rel.at != nil {
			t.Fatalf("FCFS core built %d keys, %d block summaries, a %d-node projection, a %d-bin histogram and a %d-run release heap",
				len(c.keys), len(c.blocks), len(c.proj), len(c.hist), len(c.rel.h))
		}
	}
}

// FuzzPassMatchesReference decodes the fuzz bytes into a script, as
// FuzzCoreMatchesScratch does, and requires a core with the real pass
// and a twin with the plain pass to start, place and end every entry
// identically. The seeds include deep backlogs of a few repeated
// demands with long walltimes, where both of the pass's memos fire,
// with slots revived by releases and requeues and backfill switched
// mid-run.
func FuzzPassMatchesReference(f *testing.F) {
	for _, sc := range backlogSeeds() {
		f.Add(encode(sc))
	}
	for _, backfill := range []bool{false, true} {
		f.Add(encode(pbsScript(421, 12, 60, backfill)))
		f.Add(encode(winScript(733, 12, 60, backfill)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := differFromReference(decode(data)); err != nil {
			t.Fatal(err)
		}
	})
}
