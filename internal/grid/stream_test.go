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

// collidingTrace submits three jobs at each of the given number of
// 5-minute marks: several jobs share each instant, the marks fall on
// the members' controller cycles, and runtimes are whole multiples of 5
// minutes, so arrivals land on the instants where earlier jobs end. The
// third job of each mark runs on third. Job wide is 64 nodes wide, too
// wide for any member, so every member refuses it.
func collidingTrace(marks int, third osid.OS, wide int) workload.Trace {
	var trace workload.Trace
	for k := 0; k < marks; k++ {
		at := time.Duration(k) * 5 * time.Minute
		runtime := time.Duration(1+k%4) * 5 * time.Minute
		trace = append(trace,
			workload.Job{At: at, App: "DL_POLY", OS: osid.Linux, Owner: "u1", Nodes: 1 + k%3, PPN: 4, Runtime: runtime},
			workload.Job{At: at, App: "Backburner", OS: osid.Windows, Owner: "u2", Nodes: 1 + k%2, PPN: 4, Runtime: 2 * runtime},
			workload.Job{At: at, App: "MATLAB", OS: third, Owner: "u3", Nodes: 1, PPN: 4, Runtime: runtime})
	}
	trace[wide].Nodes = 64
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
	sums    []metrics.Summary
	jobs    [][]metrics.JobRecord
	events  [][]cluster.Event
	routed  map[string]int
	dropped int
	ran     uint64
	starts  []string // "<member>:L<seq>@t" / "<member>:W<id>@t" in start order
}

func runColliding(t *testing.T, specs []MemberSpec, schedule func(*Grid)) streamRun {
	t.Helper()
	g, err := New(RouteLeastLoaded, specs)
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
	}
	schedule(g)
	g.RunUntilDrained(48 * time.Hour)
	for _, m := range g.Members() {
		r.sums = append(r.sums, m.Cluster.Summary())
		r.jobs = append(r.jobs, m.Cluster.Rec.Jobs())
		r.events = append(r.events, m.Cluster.Events())
	}
	r.routed, r.dropped, r.ran = g.RoutedCounts(), g.Dropped(), g.Eng.EventsRun()
	return r
}

// TestStreamedTraceMatchesEager holds the chained arrivals of
// ScheduleTrace to the eager schedule they replace, on a one-member
// grid (how every single cluster runs) and on the campus: the same
// member summaries, job rows (end instants and completions included),
// routing and event logs, the same number of engine events, and the
// same job starts in the same order.
func TestStreamedTraceMatchesEager(t *testing.T) {
	cases := []struct {
		name  string
		specs []MemberSpec
		trace workload.Trace
	}{
		{"one-member", []MemberSpec{{Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 6, Seed: 3}}},
			collidingTrace(12, osid.Linux, 7)},
		{"campus", threeMemberSpecs(), collidingTrace(16, osid.Windows, 30)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streamed := runColliding(t, tc.specs, func(g *Grid) {
				if err := g.ScheduleTrace(tc.trace); err != nil {
					t.Fatal(err)
				}
			})
			eager := runColliding(t, tc.specs, func(g *Grid) { scheduleEagerly(g, tc.trace) })

			ends := make(map[time.Duration]bool)
			for _, jobs := range eager.jobs {
				for _, j := range jobs {
					if j.Completed {
						ends[j.Ended] = true
					}
				}
			}
			collisions, failures := 0, 0
			for _, j := range tc.trace {
				if ends[j.At] {
					collisions++
				}
			}
			for _, s := range eager.sums {
				failures += s.SubmitFailures
			}
			if collisions == 0 || eager.sums[0].Switches == 0 || failures != 1 || eager.dropped != 0 {
				t.Fatalf("trace exercises too little: %d arrivals on a job end, %d switches on the first member, %d submit failures, %d dropped",
					collisions, eager.sums[0].Switches, failures, eager.dropped)
			}
			if !reflect.DeepEqual(streamed.sums, eager.sums) {
				t.Errorf("summaries %+v\nwant %+v", streamed.sums, eager.sums)
			}
			if !reflect.DeepEqual(streamed.jobs, eager.jobs) {
				t.Errorf("job rows %+v\nwant %+v", streamed.jobs, eager.jobs)
			}
			if !reflect.DeepEqual(streamed.routed, eager.routed) || streamed.dropped != eager.dropped {
				t.Errorf("routed %v, dropped %d; eager %v, %d", streamed.routed, streamed.dropped, eager.routed, eager.dropped)
			}
			if streamed.ran != eager.ran {
				t.Errorf("EventsRun = %d, eager %d", streamed.ran, eager.ran)
			}
			if !slices.Equal(streamed.starts, eager.starts) {
				t.Errorf("start order %v\nwant %v", streamed.starts, eager.starts)
			}
			if !reflect.DeepEqual(streamed.events, eager.events) {
				t.Errorf("event logs differ:\n%v\nwant\n%v", streamed.events, eager.events)
			}
		})
	}
}
