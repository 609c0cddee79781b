package sched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// BenchmarkScheduler measures the core alone at metro scale — 2,500
// four-slot nodes — for each demand shape under each pass: Torque's
// nodes×ppn, the HPC Pack core unit and the HPC Pack node unit, by
// FCFS and by EASY backfill. Each op replays twelve hours of Poisson
// arrivals at 500 jobs/h, about the machine's capacity, to
// completion. The same seeded stream serves every case of a shape.
//
// The backfill-2x case of each shape is a saturated EASY run instead:
// a few catalog-like demands (see satJobs) arrive at twice the
// machine's capacity for three hours, so the backlog the pass walks
// grows thousands deep before it drains.
func BenchmarkScheduler(b *testing.B) {
	for _, shape := range []struct {
		name  string
		shape Shape
	}{{"pbs-nodes-ppn", PerNode}, {"hpc-core", Anywhere}, {"hpc-node", Whole}} {
		jobs := benchJobs(shape.shape, 1700)
		for _, backfill := range []bool{false, true} {
			b.Run(shape.name+"/"+passName(backfill), func(b *testing.B) {
				benchRun(b, jobs, backfill)
			})
		}
		sat := satJobs(shape.shape, 1700)
		b.Run(shape.name+"/backfill-2x", func(b *testing.B) { benchRun(b, sat, true) })
	}
}

func benchRun(b *testing.B, jobs []benchJob, backfill bool) {
	b.ReportAllocs()
	for b.Loop() {
		if done := runBench(jobs, backfill); done != len(jobs) {
			b.Fatalf("%d of %d jobs finished", done, len(jobs))
		}
	}
}

type benchJob struct {
	at time.Duration
	e  Entry
}

func benchJobs(shape Shape, seed int64) []benchJob {
	rng := rand.New(rand.NewSource(seed))
	var out []benchJob
	for at := time.Duration(0); at < 12*time.Hour; at += time.Duration(rng.ExpFloat64() * float64(time.Hour) / 500) {
		e := Entry{Shape: shape, Runtime: 10*time.Minute + time.Duration(rng.Int63n(int64(100*time.Minute)))}
		switch shape {
		case PerNode:
			e.Count, e.PPN = 1+rng.Intn(16), 1+rng.Intn(4)
			e.Walltime = e.Runtime * 3 / 2
		case Whole:
			e.Count = 1 + rng.Intn(8)
		case Anywhere:
			e.Count = 1 + rng.Intn(40)
		}
		out = append(out, benchJob{at: at, e: e})
	}
	return out
}

// satJobs draws three hours of Poisson arrivals at twice the machine's
// slot capacity from a few fixed demands per shape, like the
// application catalog's: whole-node jobs of one, two and four nodes
// and narrow ones. Runtimes are uniform over 10–110 minutes; PerNode
// jobs carry walltimes half again over their runtimes.
func satJobs(shape Shape, seed int64) []benchJob {
	demands := map[Shape][][2]int{ // {Count, PPN}
		PerNode:  {{1, 4}, {2, 4}, {4, 4}, {1, 2}, {1, 1}},
		Anywhere: {{1, 0}, {2, 0}, {4, 0}, {8, 0}, {16, 0}},
		Whole:    {{1, 0}, {2, 0}, {4, 0}},
	}[shape]
	slots := 0
	for _, d := range demands {
		switch shape {
		case PerNode:
			slots += d[0] * d[1]
		case Whole:
			slots += 4 * d[0] // runBench's nodes have four slots
		default:
			slots += d[0]
		}
	}
	// Offered slot-hours per hour: rate × mean slots × one-hour mean
	// runtime = twice the 10,000 slots.
	rate := 2 * 10000 * float64(len(demands)) / float64(slots)
	rng := rand.New(rand.NewSource(seed))
	var out []benchJob
	for at := time.Duration(0); at < 3*time.Hour; at += time.Duration(rng.ExpFloat64() * float64(time.Hour) / rate) {
		d := demands[rng.Intn(len(demands))]
		e := Entry{Shape: shape, Count: d[0], PPN: d[1], Runtime: 10*time.Minute + time.Duration(rng.Int63n(int64(100*time.Minute)))}
		if shape == PerNode {
			e.Walltime = e.Runtime * 3 / 2
		}
		out = append(out, benchJob{at: at, e: e})
	}
	return out
}

// runBench replays the stream on a fresh core and returns how many
// jobs finished.
func runBench(jobs []benchJob, backfill bool) int {
	eng := simtime.NewEngine()
	done := 0
	c := New(eng, Face{Backfill: &backfill, Started: func(*Entry) {}, Finished: func(*Entry) { done++ }})
	for range 2500 {
		c.AddNode(4, Up)
	}
	entries := make([]Entry, len(jobs))
	for i, j := range jobs {
		e := &entries[i]
		*e = j.e
		e.Seq = i + 1
		eng.At(j.at, func() { c.Submit(e) })
	}
	eng.Run()
	return done
}
