package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pbs"
	"repro/internal/winhpc"
	"repro/internal/workload"
)

// collidingTrace submits three jobs at every 5-minute mark: several
// jobs share each instant, every other mark is a controller cycle
// (10 minutes), and runtimes are whole multiples of 5 minutes, so
// arrivals land on the instants where earlier jobs end. The Windows
// share outgrows its two initial nodes, so the controller switches
// nodes; one Linux job is too wide to ever submit.
func collidingTrace() workload.Trace {
	var trace workload.Trace
	for k := 0; k < 12; k++ {
		at := time.Duration(k) * 5 * time.Minute
		runtime := time.Duration(1+k%4) * 5 * time.Minute
		trace = append(trace,
			linJob(at, 1+k%3, runtime),
			winJob(at, 1+k%2, 2*runtime),
			linJob(at, 1, runtime))
	}
	trace[7].Nodes = 64
	return trace
}

// scheduleEagerly is the reference for chained arrivals: every arrival
// queued at time zero, one engine event per job, a refused job booked
// as a grid books it.
func scheduleEagerly(c *Cluster, trace workload.Trace) *feed {
	f := &feed{Cluster: c, pending: len(trace)}
	for _, j := range trace {
		c.Eng.At(j.At, func() {
			f.pending--
			if _, err := c.Submit(j); err != nil {
				c.RecordSubmitFailure(j, err)
			}
		})
	}
	return f
}

// streamRun is what one run of a trace leaves to compare.
type streamRun struct {
	sum    metrics.Summary
	ran    uint64
	starts []string // "L<seq>@t" / "W<id>@t" in start order
	jobs   []metrics.JobRecord
	events []Event
}

func runColliding(t *testing.T, schedule func(*Cluster) *feed) streamRun {
	t.Helper()
	c := newCluster(t, Config{Mode: HybridV2, Nodes: 8, InitialLinux: 6, Seed: 3})
	var r streamRun
	pbsStart, winStart := c.PBS.OnJobStart, c.Win.OnJobStart
	c.PBS.OnJobStart = func(j *pbs.Job) {
		r.starts = append(r.starts, fmt.Sprintf("L%d@%v", j.SeqNo(), c.Eng.Now()))
		pbsStart(j)
	}
	c.Win.OnJobStart = func(j *winhpc.Job) {
		r.starts = append(r.starts, fmt.Sprintf("W%d@%v", j.ID(), c.Eng.Now()))
		winStart(j)
	}
	drain(c, 48*time.Hour, schedule(c).Busy)
	r.sum, r.ran, r.jobs, r.events = c.Summary(), c.Eng.EventsRun(), c.Rec.Jobs(), c.Events()
	return r
}

// TestStreamedTraceMatchesEager holds arrivals chained through
// Engine.Chain, as a trace reaches a cluster, to the eager schedule
// they replace: the same summary, the same number of engine events,
// the same job starts in the same order, the same job rows (end
// instants and completions included) and the same event log.
func TestStreamedTraceMatchesEager(t *testing.T) {
	trace := collidingTrace()
	streamed := runColliding(t, func(c *Cluster) *feed { return scheduleTrace(c, trace) })
	eager := runColliding(t, func(c *Cluster) *feed { return scheduleEagerly(c, trace) })

	ends := make(map[time.Duration]bool)
	for _, j := range eager.jobs {
		if j.Completed {
			ends[j.Ended] = true
		}
	}
	collisions := 0
	for _, j := range trace {
		if ends[j.At] {
			collisions++
		}
	}
	if collisions == 0 || eager.sum.Switches == 0 || eager.sum.SubmitFailures != 1 {
		t.Fatalf("trace exercises too little: %d arrivals on a job end, %d switches, %d submit failures",
			collisions, eager.sum.Switches, eager.sum.SubmitFailures)
	}
	if !reflect.DeepEqual(streamed.sum, eager.sum) {
		t.Errorf("summary %+v\nwant %+v", streamed.sum, eager.sum)
	}
	if streamed.ran != eager.ran {
		t.Errorf("EventsRun = %d, eager %d", streamed.ran, eager.ran)
	}
	if !slices.Equal(streamed.starts, eager.starts) {
		t.Errorf("start order %v\nwant %v", streamed.starts, eager.starts)
	}
	if !reflect.DeepEqual(streamed.jobs, eager.jobs) {
		t.Errorf("job rows %+v\nwant %+v", streamed.jobs, eager.jobs)
	}
	if !reflect.DeepEqual(streamed.events, eager.events) {
		t.Errorf("event log differs:\n%v\nwant\n%v", streamed.events, eager.events)
	}
}
