package grid

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/osid"
	"repro/internal/workload"
)

// drainGrid is a one-member hybrid grid: its controller ticks every
// cycle for as long as it runs.
func drainGrid(t *testing.T) (*Grid, *cluster.Cluster) {
	t.Helper()
	g, err := New(RouteLeastLoaded, []MemberSpec{{Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Members()[0].Cluster
}

// assertQuiesced checks that the controller stopped: an hour more on
// the clock runs no further cycle.
func assertQuiesced(t *testing.T, g *Grid, c *cluster.Cluster) {
	t.Helper()
	cycles := c.Mgr.Stats().Cycles
	g.Eng.RunFor(time.Hour)
	if got := c.Mgr.Stats().Cycles; got != cycles {
		t.Fatalf("controller ran %d cycles after the drain", got-cycles)
	}
}

func linuxJob(at, runtime time.Duration) workload.Job {
	return workload.Job{At: at, App: "DL_POLY", OS: osid.Linux, Owner: "md", Nodes: 1, PPN: 4, Runtime: runtime}
}

// The drain stops at the instant the last job ends, not at a cycle or
// ticker boundary, and quiesces the grid.
func TestRunUntilDrainedStopsAtQuiescence(t *testing.T) {
	g, c := drainGrid(t)
	if err := g.ScheduleTrace(workload.Trace{linuxJob(0, 10*time.Minute), linuxJob(5*time.Minute, 40*time.Minute)}); err != nil {
		t.Fatal(err)
	}
	tk := g.Eng.Every(time.Minute, func() {})
	defer tk.Stop()
	g.RunUntilDrained(24 * time.Hour)
	if g.Eng.Now() != 45*time.Minute {
		t.Fatalf("stopped at %v, want exactly 45m", g.Eng.Now())
	}
	assertQuiesced(t, g, c)
}

// A grid that can never finish (a job queued on a cluster whose every
// node was taken out of service on both sides, so no switch job can
// run either) rides the clock to the horizon and is quiesced there.
func TestRunUntilDrainedRidesWedgedGridToHorizon(t *testing.T) {
	g, c := drainGrid(t)
	for _, n := range c.Nodes() {
		if err := c.PBS.SetNodeAvailable(n.HW.Name, false); err != nil {
			t.Fatal(err)
		}
		if err := c.Win.SetNodeOnline(n.HW.Name, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.ScheduleTrace(workload.Trace{linuxJob(0, time.Minute)}); err != nil {
		t.Fatal(err)
	}
	g.RunUntilDrained(3 * time.Hour)
	if g.Eng.Now() != 3*time.Hour {
		t.Fatalf("wedged drain ended at %v", g.Eng.Now())
	}
	if c.Rec.Unfinished() != 1 {
		t.Fatalf("unfinished = %d, want the wedged job", c.Rec.Unfinished())
	}
	assertQuiesced(t, g, c)
}

func TestRunUntilDrainedNonPositiveHorizonIsUnbounded(t *testing.T) {
	g, _ := drainGrid(t)
	if err := g.ScheduleTrace(workload.Trace{linuxJob(0, 100*24*time.Hour)}); err != nil {
		t.Fatal(err)
	}
	g.RunUntilDrained(0)
	if g.Eng.Now() != 100*24*time.Hour {
		t.Fatalf("unbounded drain ended at %v", g.Eng.Now())
	}
}
