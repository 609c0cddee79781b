package grid

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/winhpc"
	"repro/internal/workload"
)

// collidingTrace submits three jobs at every 5-minute mark: several
// jobs share each instant, every mark is a controller cycle of the
// hybrid member (5 minutes), and runtimes are whole multiples of 5
// minutes, so arrivals land on the instants where earlier jobs end.
func collidingTrace() workload.Trace {
	var trace workload.Trace
	for k := 0; k < 16; k++ {
		at := time.Duration(k) * 5 * time.Minute
		runtime := time.Duration(1+k%4) * 5 * time.Minute
		trace = append(trace,
			workload.Job{At: at, App: "DL_POLY", OS: osid.Linux, Owner: "u1", Nodes: 1 + k%3, PPN: 4, Runtime: runtime},
			workload.Job{At: at, App: "Backburner", OS: osid.Windows, Owner: "u2", Nodes: 1 + k%2, PPN: 4, Runtime: 2 * runtime},
			workload.Job{At: at, App: "MATLAB", OS: osid.Windows, Owner: "u3", Nodes: 1, PPN: 4, Runtime: runtime})
	}
	return trace
}

// scheduleEagerly is the reference ScheduleTrace: every arrival queued
// at time zero, one engine event per job.
func scheduleEagerly(g *Grid, trace workload.Trace) {
	for _, j := range trace {
		g.scheduled++
		g.Eng.At(j.At, func() {
			g.scheduled--
			_, _ = g.Route(j)
		})
	}
}

// streamRun is what one run of a trace leaves to compare.
type streamRun struct {
	sums   []metrics.Summary
	routed map[string]int
	ran    uint64
	starts []string // "<member>:L<seq>@t" / "<member>:W<id>@t" in start order
	ends   []time.Duration
}

func runColliding(t *testing.T, trace workload.Trace, schedule func(*Grid)) streamRun {
	t.Helper()
	g, err := New(RouteLeastLoaded, threeMemberSpecs())
	if err != nil {
		t.Fatal(err)
	}
	var r streamRun
	for _, m := range g.Members() {
		c, name := m.Cluster, m.Name
		pbsStart, winStart := c.PBS.OnJobStart, c.Win.OnJobStart
		c.PBS.OnJobStart = func(j *pbs.Job) {
			r.starts = append(r.starts, fmt.Sprintf("%s:L%d@%v", name, j.SeqNo(), g.Eng.Now()))
			pbsStart(j)
		}
		c.Win.OnJobStart = func(j *winhpc.Job) {
			r.starts = append(r.starts, fmt.Sprintf("%s:W%d@%v", name, j.ID(), g.Eng.Now()))
			winStart(j)
		}
		c.AddHooks(cluster.Hooks{JobCompleted: func(int, bool) { r.ends = append(r.ends, g.Eng.Now()) }})
	}
	schedule(g)
	g.RunUntilDrained(48 * time.Hour)
	for _, m := range g.Members() {
		r.sums = append(r.sums, m.Cluster.Summary())
	}
	r.routed, r.ran = g.RoutedCounts(), g.Eng.EventsRun()
	return r
}

// TestStreamedTraceMatchesEager holds the chained arrivals of
// ScheduleTrace to the eager schedule they replace: the same member
// summaries and routing, the same number of engine events, and the
// same job starts in the same order.
func TestStreamedTraceMatchesEager(t *testing.T) {
	trace := collidingTrace()
	streamed := runColliding(t, trace, func(g *Grid) {
		if err := g.ScheduleTrace(trace); err != nil {
			t.Fatal(err)
		}
	})
	eager := runColliding(t, trace, func(g *Grid) { scheduleEagerly(g, trace) })

	collisions := 0
	for _, j := range trace {
		if slices.Contains(eager.ends, j.At) {
			collisions++
		}
	}
	if collisions == 0 || eager.sums[0].Switches == 0 {
		t.Fatalf("trace exercises too little: %d arrivals on a job end, %d switches on the hybrid member",
			collisions, eager.sums[0].Switches)
	}
	if !reflect.DeepEqual(streamed.sums, eager.sums) {
		t.Errorf("summaries %+v\nwant %+v", streamed.sums, eager.sums)
	}
	if !reflect.DeepEqual(streamed.routed, eager.routed) {
		t.Errorf("routed %v, eager %v", streamed.routed, eager.routed)
	}
	if streamed.ran != eager.ran {
		t.Errorf("EventsRun = %d, eager %d", streamed.ran, eager.ran)
	}
	if !slices.Equal(streamed.starts, eager.starts) {
		t.Errorf("start order %v\nwant %v", streamed.starts, eager.starts)
	}
}
