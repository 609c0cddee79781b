package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The EASY pass skips candidates its per-pass memo rules out and takes
// its reservation off a heap, reusing it across passes while nothing
// changed. passReference is the pass without any of that: every live
// entry gets a placement attempt and every reservation replays the
// whole running set, sorted by release. A core driven by it is the
// reference the real pass must match decision for decision.

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
	r := reservation{free: make([]int, len(c.nodes))}
	for i, n := range c.nodes {
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
// are refused for delaying the pivot, plus node outages and admission
// gating. hpc picks HPC Pack-shaped demands (Whole and Anywhere)
// instead of Torque-shaped ones (PerNode).
func backlogScript(seed int64, nodes, jobs int, hpc bool) script {
	rng := rand.New(rand.NewSource(seed))
	sc := script{slots: uniform(nodes, 4), backfill: true}
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
	}
	sc.ops = append(sc.ops, outages(rng, nodes)...)
	for i := 0; i < 4; i++ {
		sc.ops = append(sc.ops, op{at: time.Duration(rng.Int63n(int64(4 * time.Hour))), kind: opGate})
	}
	return renumber(sc)
}

// FuzzPassMatchesReference decodes the fuzz bytes into a script, as
// FuzzCoreMatchesScratch does, and requires a core with the real pass
// and a twin with the plain pass to start, place and end every entry
// identically. The seeds include deep backlogs of a few repeated
// demands with long walltimes, where both of the pass's memos fire.
func FuzzPassMatchesReference(f *testing.F) {
	for _, hpc := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			f.Add(encode(backlogScript(seed, 8, 120, hpc)))
		}
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
