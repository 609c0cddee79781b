package sched

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// An earlier revision of both head nodes shipped unreserved greedy
// backfill, which let a stream of narrow jobs starve a blocked wide
// job indefinitely. passGreedy is a replica of that pass, kept so the
// starvation stays demonstrable against the EASY pass that replaced
// it; the pbs and winhpc backfill tests pin the EASY bounds through
// each face.

// passGreedy replicates the pre-EASY greedy backfill: start anything
// that fits, in queue order, with no reservation for the blocked head.
func (c *Core) passGreedy() {
	for _, e := range c.Queue() {
		if c.face.Skip != nil && c.face.Skip(e) {
			continue
		}
		if g := c.choose(e); g != nil {
			c.start(e, g)
		}
	}
}

// starvation builds the canonical scenario on two 4-slot nodes: a
// blocker pins node 0 for two hours, a two-node job queues behind it,
// and a one-slot job arrives every ten minutes for six hours. The wide
// job's EASY reservation is the blocker's projected end, t=2h. wide
// picks the shapes: PerNode for Torque's nodes=N:ppn=M with walltimes,
// Whole for the HPC Pack node unit with core-unit narrows. It returns
// the wide entry, the narrow ones, and every entry's start time.
func starvation(wide Shape, greedy bool) (w *Entry, narrows []*Entry, starts map[*Entry]time.Duration) {
	eng := simtime.NewEngine()
	backfill := true
	starts = map[*Entry]time.Duration{}
	c := New(eng, Face{
		Backfill: &backfill,
		Started:  func(e *Entry) { starts[e] = eng.Now() },
		Finished: func(*Entry) {},
	})
	if greedy {
		c.override = c.passGreedy
	}
	c.AddNode(4, Up)
	c.AddNode(4, Up)
	seq := 0
	submit := func(count, ppn int, runtime time.Duration) *Entry {
		seq++
		e := &Entry{Seq: seq, Shape: wide, Count: count, PPN: ppn, Runtime: runtime}
		if wide == PerNode {
			e.Walltime = runtime
		} else if ppn == 1 {
			e.Shape = Anywhere
		}
		c.Submit(e)
		return e
	}
	submit(1, 4, 2*time.Hour)
	eng.RunUntil(time.Second) // let the blocker start
	w = submit(2, 4, time.Hour)
	for i := 0; i < 36; i++ {
		eng.At(90*time.Second+time.Duration(i)*10*time.Minute, func() {
			narrows = append(narrows, submit(1, 1, 30*time.Minute))
		})
	}
	eng.RunUntil(6 * time.Hour)
	eng.Run()
	return w, narrows, starts
}

const wideReservation = 2 * time.Hour

func testGreedyStarves(t *testing.T, wide Shape) {
	w, narrows, starts := starvation(wide, true)
	// The greedy replica keeps feeding narrow jobs onto the free node:
	// the wide head waits out the whole six-hour stream.
	if at := starts[w]; at < 6*time.Hour {
		t.Fatalf("wide entry started at %v, want starved past the stream under greedy backfill", at)
	}
	started := 0
	for _, n := range narrows {
		if starts[n] < starts[w] {
			started++
		}
	}
	if started < 20 {
		t.Fatalf("greedy replica only started %d narrow entries ahead of the wide one", started)
	}
	// The EASY pass on the same stream starts it by its reservation.
	w, _, starts = starvation(wide, false)
	if at, ok := starts[w]; !ok || at > wideReservation {
		t.Fatalf("EASY started the wide entry at %v, after its %v reservation", at, wideReservation)
	}
}

func TestGreedyBackfillReplicaStarvesWideJob(t *testing.T) { testGreedyStarves(t, PerNode) }

func TestGreedyBackfillReplicaStarvesNodeJob(t *testing.T) { testGreedyStarves(t, Whole) }
