package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/osid"
	"repro/internal/workload"
)

func smallTrace() workload.Trace {
	return workload.Trace{
		{At: 0, App: "DL_POLY", OS: osid.Linux, Owner: "u1", Nodes: 2, PPN: 4, Runtime: time.Hour},
		{At: 10 * time.Minute, App: "Backburner", OS: osid.Windows, Owner: "u2", Nodes: 1, PPN: 4, Runtime: 30 * time.Minute},
	}
}

func TestRunScenario(t *testing.T) {
	res, err := Run(Scenario{
		Name:    "smoke",
		Cluster: cluster.Config{Mode: cluster.HybridV2, Cycle: 5 * time.Minute},
		Trace:   smallTrace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != cluster.HybridV2 {
		t.Fatalf("mode = %v", res.Mode)
	}
	s := res.Summary
	if s.JobsCompleted[osid.Linux] != 1 || s.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("completed = %v", s.JobsCompleted)
	}
	if s.Utilisation <= 0 {
		t.Fatalf("utilisation = %v", s.Utilisation)
	}
	if res.Controller.Cycles == 0 {
		t.Fatal("controller never cycled")
	}
}

func TestRunScenarioWithSeries(t *testing.T) {
	res, err := Run(Scenario{
		Name:           "series",
		Cluster:        cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute},
		Trace:          smallTrace(),
		SampleInterval: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series recorded")
	}
}

func TestRunRejectsBadTrace(t *testing.T) {
	bad := workload.Trace{{At: 0, App: "x", OS: osid.None, Nodes: 1, PPN: 1, Runtime: time.Minute}}
	if _, err := Run(Scenario{Cluster: cluster.Config{Mode: cluster.Static}, Trace: bad}); err == nil {
		t.Fatal("bad trace accepted")
	}
}

func TestCompareModes(t *testing.T) {
	modes := []cluster.Mode{cluster.Static, cluster.HybridV2}
	results, err := CompareModes(modes, cluster.Config{Cycle: 5 * time.Minute, InitialLinux: 8}, smallTrace(), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Name != "static-split" || results[1].Name != "hybrid-v2" {
		t.Fatalf("names = %v, %v", results[0].Name, results[1].Name)
	}
	table := ComparisonTable(results)
	for _, want := range []string{"scenario", "util", "static-split", "hybrid-v2"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestResultRowShape(t *testing.T) {
	res, err := Run(Scenario{
		Name:    "row",
		Cluster: cluster.Config{Mode: cluster.Static, InitialLinux: 8},
		Trace:   smallTrace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	row := ResultRow(res)
	if len(row) != len(ResultHeader()) {
		t.Fatalf("row len %d != header len %d", len(row), len(ResultHeader()))
	}
	if row[0] != "row" {
		t.Fatalf("row[0] = %q", row[0])
	}
	if !strings.HasSuffix(row[len(row)-1], "/2") {
		t.Fatalf("completion cell = %q", row[len(row)-1])
	}
}

// A scenario with a grid topology runs every member on one clock,
// routes the trace, and reports per-member summaries plus the fabric
// aggregate.
func TestRunGridTopology(t *testing.T) {
	sc := Scenario{
		Name:    "campus",
		Cluster: cluster.Config{Mode: cluster.HybridV2},
		Trace:   smallTrace(),
		Horizon: 24 * time.Hour,
		Topology: Topology{
			Routing: grid.RouteLeastLoaded,
			Members: []grid.MemberSpec{
				{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 2, Cycle: 5 * time.Minute}},
				{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
			},
		},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 {
		t.Fatalf("members = %d", len(res.Members))
	}
	if res.Members[0].Name != "eridani" || res.Members[1].Name != "tauceti" {
		t.Fatalf("member order = %v, %v", res.Members[0].Name, res.Members[1].Name)
	}
	s := res.Summary
	if s.JobsCompleted[osid.Linux]+s.JobsCompleted[osid.Windows] != len(sc.Trace) {
		t.Fatalf("aggregate completed = %v", s.JobsCompleted)
	}
	if s.TotalCores != 32 { // 2 members × 4 nodes × 4 cores
		t.Fatalf("aggregate cores = %d", s.TotalCores)
	}
	var routedTotal int
	var memberDone int
	for _, m := range res.Members {
		routedTotal += m.Routed
		memberDone += m.Summary.JobsCompleted[osid.Linux] + m.Summary.JobsCompleted[osid.Windows]
	}
	if routedTotal != len(sc.Trace) || res.Dropped != 0 {
		t.Fatalf("routed = %d, dropped = %d", routedTotal, res.Dropped)
	}
	if memberDone != len(sc.Trace) {
		t.Fatalf("member completions = %d", memberDone)
	}
	if res.EventsRun == 0 {
		t.Fatal("EventsRun not recorded")
	}
	for _, e := range res.Events {
		if !strings.Contains(e.What, ": ") {
			t.Fatalf("merged event missing member prefix: %+v", e)
		}
	}
}

// Sampling is an observer that works on any topology: a campus run
// records the sum of its members' snapshots at every tick, and closes
// the series at the stop instant. The reference series comes from a
// grid assembled and sampled by hand.
func TestRunGridTopologySamplesSeries(t *testing.T) {
	members := []grid.MemberSpec{
		{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 4, Cycle: 5 * time.Minute}},
		{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	}
	const interval = 7 * time.Minute // the run stops between ticks
	res, err := Run(Scenario{
		Trace:          smallTrace(),
		Horizon:        24 * time.Hour,
		SampleInterval: interval,
		Topology:       Topology{Members: members},
	})
	if err != nil {
		t.Fatal(err)
	}

	g, err := grid.New(grid.RouteLeastLoaded, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ScheduleTrace(smallTrace()); err != nil {
		t.Fatal(err)
	}
	var want []cluster.Snapshot // grid.TestSnapshotSumsMembers pins Snapshot to the members' sum
	g.Eng.Every(interval, func() { want = append(want, g.Snapshot()) })
	g.RunUntilDrained(24 * time.Hour)
	want = append(want, g.Snapshot())

	if len(res.Series) < 3 || !reflect.DeepEqual(res.Series, want) {
		t.Fatalf("series %+v\nwant %+v", res.Series, want)
	}
	last := res.Series[len(res.Series)-1]
	if last.At != res.Summary.Elapsed || last.At%interval == 0 {
		t.Fatalf("last point at %v, want the stop instant %v off the sampling grid", last.At, res.Summary.Elapsed)
	}
	if last.WindowsNodes == 0 {
		t.Fatalf("the hybrid member never switched a node to Windows: %+v", last)
	}
}

// A single Static cluster with no nodes on a job's side cannot serve
// the job: it is Dropped, the rule every grid applies, rather than a
// submit failure.
func TestRunSingleStaticEmptySideDrops(t *testing.T) {
	res, err := Run(Scenario{
		Cluster: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4},
		Trace:   smallTrace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if res.Dropped != 1 || s.SubmitFailures != 0 || s.JobsCompleted[osid.Linux] != 1 || s.JobsSubmitted[osid.Windows] != 0 {
		t.Fatalf("dropped %d, summary %+v: want the Windows job dropped", res.Dropped, s)
	}
	if res.Members != nil {
		t.Fatalf("single run reports members %+v", res.Members)
	}
}

// Scenario.Latency is a treatment axis like SchedPolicy: it overrides
// the boot-latency model on the single cluster and on every topology
// member, without writing through the caller's specs.
func TestScenarioLatencyOverride(t *testing.T) {
	// One Windows job against an all-Linux cluster forces a switch.
	trace := workload.Trace{
		{At: 0, App: "Backburner", OS: osid.Windows, Owner: "u", Nodes: 1, PPN: 4, Runtime: 30 * time.Minute},
	}
	run := func(lat *bootmgr.LatencyModel) time.Duration {
		res, err := Run(Scenario{
			Cluster: cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute, Seed: 7},
			Trace:   trace,
			Latency: lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Switches == 0 {
			t.Fatal("scenario produced no switches")
		}
		return res.Summary.MeanSwitch
	}
	slow := bootmgr.DefaultLatencyModel()
	slow.KernelWindows *= 10
	slow.KernelLinux *= 10
	if stock, scaled := run(nil), run(&slow); scaled <= stock {
		t.Fatalf("latency override ignored: stock %v, slow %v", stock, scaled)
	}

	members := []grid.MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 4}},
	}
	res, err := Run(Scenario{
		Trace:    trace,
		Topology: Topology{Members: members},
		Latency:  &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Switches == 0 {
		t.Fatal("grid scenario produced no switches")
	}
	if members[0].Config.Latency != nil {
		t.Fatal("latency override wrote through the caller's member spec")
	}
}
