package grid

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/osid"
	"repro/internal/workload"
)

// TestTraceAllocationsPerJob bounds what a submitted job costs on the
// heap over its whole life: routing, submission, queueing, start, end
// and its metrics record, on both head nodes. A mixed Linux/Windows
// trace runs through ScheduleTrace on a prebuilt one-member grid — the
// path every single-cluster scenario takes — until it drains. Routing
// builds nothing per job, the job tables grow in chunks and no per-job
// text is rendered, so what remains per job is the amortised growth of
// those tables and of the engine's calendar, and the stuck reports' job
// IDs (a control cycle allocates nothing else). The city tier runs this
// path a million times per cell.
func TestTraceAllocationsPerJob(t *testing.T) {
	trace := workload.Poisson(workload.PoissonConfig{Seed: 7, Duration: 8 * time.Hour,
		JobsPerHour: 400, WindowsFrac: 0.4, RuntimeScale: 0.1, MaxNodes: 4})
	const runs = 3
	grids := make([]*Grid, runs+1) // AllocsPerRun adds a warm-up run
	for i := range grids {
		g, err := New(RouteLeastLoaded, []MemberSpec{{Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 64}}})
		if err != nil {
			t.Fatal(err)
		}
		grids[i] = g
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		g := grids[next]
		next++
		if err := g.ScheduleTrace(trace); err != nil {
			t.Fatal(err)
		}
		g.RunUntilDrained(1000 * time.Hour)
	})
	for _, g := range grids {
		c := g.members[0].Cluster
		s := c.Summary()
		if c.Rec.Unfinished() != 0 || s.SubmitFailures != 0 || g.Dropped() != 0 ||
			s.JobsCompleted[osid.Linux] == 0 || s.JobsCompleted[osid.Windows] == 0 {
			t.Fatalf("run did not drain both sides: %d unfinished, %d dropped, summary %+v", c.Rec.Unfinished(), g.Dropped(), s)
		}
	}
	perJob := allocs / float64(len(trace))
	t.Logf("%d jobs: %.0f allocations per run, %.2f per job", len(trace), allocs, perJob)
	if perJob > 1 {
		t.Fatalf("%.2f allocations per submitted job, want at most 1", perJob)
	}
}
