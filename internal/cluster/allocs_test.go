package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
	"repro/internal/workload"
)

// TestTraceAllocationsPerJob bounds what a submitted job costs on the
// heap over its whole life: submission, queueing, start, end and its
// metrics record, on both head nodes. A mixed Linux/Windows trace runs
// through ScheduleTrace on a prebuilt hybrid cluster until it drains;
// the job tables grow in chunks and no per-job text is rendered, so
// what remains per job is the amortised growth of those tables and of
// the engine's calendar, and the stuck reports' job IDs (a control
// cycle allocates nothing else). The city tier runs this path a million
// times per cell.
func TestTraceAllocationsPerJob(t *testing.T) {
	trace := workload.Poisson(workload.PoissonConfig{Seed: 7, Duration: 8 * time.Hour,
		JobsPerHour: 400, WindowsFrac: 0.4, RuntimeScale: 0.1, MaxNodes: 4})
	const runs = 3
	clusters := make([]*Cluster, runs+1) // AllocsPerRun adds a warm-up run
	for i := range clusters {
		clusters[i] = newCluster(t, Config{Mode: HybridV2, Nodes: 64})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c := clusters[next]
		next++
		if err := c.ScheduleTrace(trace); err != nil {
			t.Fatal(err)
		}
		c.RunUntilDrained(1000 * time.Hour)
	})
	for _, c := range clusters {
		s := c.Summary()
		if c.Unfinished() != 0 || s.SubmitFailures != 0 ||
			s.JobsCompleted[osid.Linux] == 0 || s.JobsCompleted[osid.Windows] == 0 {
			t.Fatalf("run did not drain both sides: %d unfinished, summary %+v", c.Unfinished(), s)
		}
	}
	perJob := allocs / float64(len(trace))
	t.Logf("%d jobs: %.0f allocations per run, %.2f per job", len(trace), allocs, perJob)
	if perJob > 1 {
		t.Fatalf("%.2f allocations per submitted job, want at most 1", perJob)
	}
}
