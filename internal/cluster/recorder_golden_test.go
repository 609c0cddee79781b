package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/export"
	"repro/internal/grid"
	"repro/internal/osid"
	"repro/internal/workload"
)

// TestRecorderRowsGolden pins what the recorder renders from its job
// rows after a hybrid-v2 run with six applications on the two sides
// (MATLAB on both) and a Linux node lost under a running job: the jobs
// CSV and the per-application table, against
// testdata/recorder_rows.golden (-update rewrites it). The apps are
// submitted out of name order, so the table's order by name is checked
// too.
func TestRecorderRowsGolden(t *testing.T) {
	g, err := grid.New(grid.RouteLeastLoaded, []grid.MemberSpec{
		{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 4,
			Cycle: 5 * time.Minute, Seed: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	job := func(at time.Duration, app string, os osid.OS, owner string, nodes, ppn int, run time.Duration) workload.Job {
		return workload.Job{At: at, App: app, OS: os, Owner: owner, Nodes: nodes, PPN: ppn, Runtime: run}
	}
	L, W := osid.Linux, osid.Windows
	trace := workload.Trace{
		job(0, "Opera", W, "render", 1, 2, 40*time.Minute),
		job(0, "LAMMPS", L, "md", 2, 4, 90*time.Minute),
		job(5*time.Minute, "MATLAB", W, "stats", 1, 4, time.Hour),
		job(5*time.Minute, "DL_POLY", L, "md", 1, 4, 30*time.Minute),
		job(10*time.Minute, "Backburner", W, "render", 3, 4, 50*time.Minute),
		job(15*time.Minute, "MATLAB", L, "stats", 1, 2, 20*time.Minute),
		job(20*time.Minute, "Gaussian", L, "chem", 1, 4, 45*time.Minute),
		job(25*time.Minute, "Opera", W, "render", 1, 1, 15*time.Minute),
		job(30*time.Minute, "DL_POLY", L, "md", 2, 4, time.Hour),
		job(40*time.Minute, "Backburner", W, "render", 2, 4, 30*time.Minute),
		job(50*time.Minute, "Gaussian", L, "chem", 1, 4, 20*time.Minute),
		job(55*time.Minute, "LAMMPS", L, "md", 1, 4, 25*time.Minute),
	}
	if err := g.ScheduleTrace(trace); err != nil {
		t.Fatal(err)
	}
	m, _ := g.Member("eridani")
	c := m.Cluster
	// The first Linux node drops out of PBS under the LAMMPS job and
	// comes back ten minutes later: the job requeues and reruns.
	g.Eng.At(12*time.Minute, func() { _ = c.PBS.SetNodeAvailable("eridani-enode01", false) })
	g.Eng.At(22*time.Minute, func() { _ = c.PBS.SetNodeAvailable("eridani-enode01", true) })
	g.RunUntilDrained(7 * 24 * time.Hour)

	jobs := c.Rec.Jobs()
	restarts := 0
	for _, j := range jobs {
		restarts += j.Restarts
	}
	if restarts == 0 {
		t.Fatal("no job was requeued by the node loss")
	}
	var b strings.Builder
	if err := export.WriteJobsCSV(&b, jobs); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\napp os completed mean_wait longest shortest cpu_hours\n")
	for _, a := range c.Rec.AppStats() {
		fmt.Fprintf(&b, "%s %s %d %v %v %v %.4f\n",
			a.App, a.OS, a.Completed, a.MeanWait, a.LongestWait, a.ShortestWait, a.CPUHours)
	}
	checkGolden(t, "recorder_rows.golden", b.String())
}
