package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/workload"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// feed is a one-member grid in miniature for this package's tests (the
// grid imports cluster, so they cannot use it): it chains a trace's
// arrivals into the cluster, books a refused job as the grid does, and
// counts arrivals still to come, so a drain waits for them.
type feed struct {
	*Cluster
	pending int
}

// Busy reports arrivals still to come or work left in the cluster.
func (f *feed) Busy() bool { return f.pending > 0 || f.Cluster.Busy() }

// scheduleTrace feeds trace to c at its submission times.
func scheduleTrace(c *Cluster, trace workload.Trace) *feed {
	f := &feed{Cluster: c, pending: len(trace)}
	c.Eng.Chain(len(trace), func(i int) time.Duration { return trace[i].At }, func(i int) {
		f.pending--
		if _, err := c.Submit(trace[i]); err != nil {
			c.RecordSubmitFailure(trace[i], err)
		}
	})
	return f
}

// drain runs c's engine while busy reports work, up to the horizon,
// then quiesces c: what grid.RunUntilDrained does for a grid.
func drain(c *Cluster, horizon time.Duration, busy func() bool) {
	c.Eng.RunWhile(horizon, busy)
	c.Quiesce()
}

// runTrace feeds trace to c, drains it and returns its summary.
func runTrace(c *Cluster, trace workload.Trace, horizon time.Duration) metrics.Summary {
	drain(c, horizon, scheduleTrace(c, trace).Busy)
	return c.Summary()
}

func linJob(at time.Duration, nodes int, runtime time.Duration) workload.Job {
	return workload.Job{At: at, App: "DL_POLY", OS: osid.Linux, Owner: "u1",
		Nodes: nodes, PPN: 4, Runtime: runtime}
}

func winJob(at time.Duration, nodes int, runtime time.Duration) workload.Job {
	return workload.Job{At: at, App: "Backburner", OS: osid.Windows, Owner: "u2",
		Nodes: nodes, PPN: 4, Runtime: runtime}
}

func TestProvisioningDefaults(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2})
	if len(c.Nodes()) != 16 {
		t.Fatalf("nodes = %d", len(c.Nodes()))
	}
	if c.NodesOn(osid.Linux) != 8 || c.NodesOn(osid.Windows) != 8 {
		t.Fatalf("split = %d/%d", c.NodesOn(osid.Linux), c.NodesOn(osid.Windows))
	}
	// PBS sees 8 available nodes (the Linux ones), WinHPC the other 8.
	if c.PBS.AvailableNodes() != 8 {
		t.Fatalf("pbs nodes = %d", c.PBS.AvailableNodes())
	}
	if c.Win.OnlineNodes() != 8 {
		t.Fatalf("win nodes = %d", c.Win.OnlineNodes())
	}
	if c.PXE == nil {
		t.Fatal("v2 cluster has no PXE service")
	}
	if c.Mgr == nil {
		t.Fatal("hybrid cluster has no controller")
	}
}

func TestV1HasNoPXE(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1})
	if c.PXE != nil {
		t.Fatal("v1 cluster has a PXE service")
	}
	// v1 disks carry the FAT control partition.
	fat, err := c.v1FATPartition(c.Nodes()[0].HW)
	if err != nil {
		t.Fatal(err)
	}
	if !fat.HasFile("/controlmenu.lst") {
		t.Fatalf("FAT contents: %v", fat.Files())
	}
}

func TestStaticHasNoController(t *testing.T) {
	c := newCluster(t, Config{Mode: Static})
	if c.Mgr != nil {
		t.Fatal("static cluster has a controller")
	}
}

func TestLinuxJobRunsOnLinuxSide(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2})
	sum := runTrace(c, workload.Trace{linJob(0, 2, time.Hour)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Linux] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
	if sum.Switches != 0 {
		t.Fatalf("switches = %d for a fitting job", sum.Switches)
	}
	if sum.MeanWait[osid.Linux] != 0 {
		t.Fatalf("wait = %v", sum.MeanWait[osid.Linux])
	}
}

func TestStuckWindowsQueuePullsLinuxNodes(t *testing.T) {
	// All nodes start in Linux; a Windows job arrives and is stuck
	// until the controller moves nodes across.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	sum := runTrace(c, workload.Trace{winJob(0, 2, time.Hour)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("windows job did not complete: %+v", sum.JobsCompleted)
	}
	if sum.Switches < 2 {
		t.Fatalf("switches = %d, want >= 2", sum.Switches)
	}
	if c.NodesOn(osid.Windows) < 2 {
		t.Fatalf("windows nodes = %d", c.NodesOn(osid.Windows))
	}
	// The wait includes at least one controller cycle plus a boot.
	if sum.MeanWait[osid.Windows] < 5*time.Minute {
		t.Fatalf("windows wait = %v, implausibly low", sum.MeanWait[osid.Windows])
	}
}

func TestStuckLinuxQueuePullsWindowsNodes(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 1, Cycle: 5 * time.Minute})
	// Linux job needs 4 nodes; only 1 Linux node exists.
	sum := runTrace(c, workload.Trace{linJob(0, 4, time.Hour)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Linux] != 1 {
		t.Fatalf("linux job did not complete: %+v", sum.JobsCompleted)
	}
	if c.NodesOn(osid.Linux) < 4 {
		t.Fatalf("linux nodes = %d", c.NodesOn(osid.Linux))
	}
}

func TestV1SwitchGoesThroughFATControlFile(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 16, Cycle: 5 * time.Minute})
	sum := runTrace(c, workload.Trace{winJob(0, 1, 30*time.Minute)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("completed = %+v", sum.JobsCompleted)
	}
	// v1 writes one FAT control file per switched node.
	if c.ControlActions() == 0 {
		t.Fatal("no control actions recorded")
	}
	// The switched node's FAT file now points at Windows.
	var switched *Node
	for _, n := range c.Nodes() {
		if n.OS == osid.Windows {
			switched = n
			break
		}
	}
	if switched == nil {
		t.Fatal("no node on windows side")
	}
	fat, _ := c.v1FATPartition(switched.HW)
	data, err := fat.ReadFile("/controlmenu.lst")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Win_Server_2K8_R2-windows") {
		t.Fatalf("control file:\n%s", data)
	}
}

func TestV2FlagSharedAcrossBatch(t *testing.T) {
	// One stuck Windows job needing several nodes: v2 sets the flag
	// once, not once per node.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(c, workload.Trace{winJob(0, 3, 30*time.Minute)}, 24*time.Hour)
	if c.PXE.Flag() != osid.Windows {
		t.Fatalf("flag = %v", c.PXE.Flag())
	}
	sum := c.Summary()
	if sum.Switches < 3 {
		t.Fatalf("switches = %d", sum.Switches)
	}
	if c.ControlActions() >= sum.Switches {
		t.Fatalf("v2 control actions (%d) should be < switches (%d)", c.ControlActions(), sum.Switches)
	}
}

func TestStaticClusterNeverSwitches(t *testing.T) {
	c := newCluster(t, Config{Mode: Static, InitialLinux: 8})
	trace := workload.Trace{winJob(0, 2, time.Hour), linJob(time.Minute, 2, time.Hour)}
	sum := runTrace(c, trace, 12*time.Hour)
	if sum.Switches != 0 || c.ControlActions() != 0 {
		t.Fatalf("static switched: %d/%d", sum.Switches, c.ControlActions())
	}
	if sum.JobsCompleted[osid.Windows] != 1 || sum.JobsCompleted[osid.Linux] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
}

func TestStaticClusterStrandsOversizedJobs(t *testing.T) {
	// A Windows job needing more nodes than the static Windows side
	// owns can never run — the poor-utilisation story of §I.
	c := newCluster(t, Config{Mode: Static, InitialLinux: 8})
	sum := runTrace(c, workload.Trace{winJob(0, 12, time.Hour)}, 8*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 0 {
		t.Fatal("oversized job completed on a static split?")
	}
	// The same job on a hybrid completes.
	h := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8, Cycle: 5 * time.Minute})
	sum = runTrace(h, workload.Trace{winJob(0, 12, time.Hour)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("hybrid failed the oversized job: %+v", sum.JobsCompleted)
	}
}

func TestMonoStableReturnsNodesHome(t *testing.T) {
	c := newCluster(t, Config{Mode: MonoStable, InitialLinux: 16, Cycle: 5 * time.Minute})
	sum := runTrace(c, workload.Trace{winJob(0, 1, 30*time.Minute)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
	if c.NodesOn(osid.Linux) != 16 {
		t.Fatalf("nodes did not return home: linux=%d windows=%d",
			c.NodesOn(osid.Linux), c.NodesOn(osid.Windows))
	}
	// Round trip = at least 2 switches (out and back).
	if sum.Switches < 2 {
		t.Fatalf("switches = %d", sum.Switches)
	}
}

func TestBiStableLeavesNodesWarm(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(c, workload.Trace{winJob(0, 1, 30*time.Minute)}, 24*time.Hour)
	if c.NodesOn(osid.Windows) == 0 {
		t.Fatal("bi-stable node was pulled back without demand")
	}
}

func TestRunningJobsProtectedFromSwitch(t *testing.T) {
	// All Linux nodes busy; a Windows job gets stuck. Switch jobs must
	// queue behind the running work, never kill it.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	trace := workload.Trace{
		linJob(0, 8, 2*time.Hour),
		{At: 0, App: "LAMMPS", OS: osid.Linux, Owner: "u3", Nodes: 8, PPN: 4, Runtime: 2 * time.Hour},
		winJob(time.Minute, 1, 30*time.Minute),
	}
	sum := runTrace(c, trace, 24*time.Hour)
	if sum.JobsCompleted[osid.Linux] != 2 {
		t.Fatalf("linux jobs harmed: %+v", sum.JobsCompleted)
	}
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("windows job lost: %+v", sum.JobsCompleted)
	}
	// The windows job could only start after Linux work finished
	// (2h) plus switch latency.
	if sum.MeanWait[osid.Windows] < 2*time.Hour {
		t.Fatalf("windows wait = %v, want > 2h (protection)", sum.MeanWait[osid.Windows])
	}
}

func TestSwitchLatencyUnderFiveMinutes(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(c, workload.Trace{winJob(0, 2, 30*time.Minute)}, 24*time.Hour)
	for _, sw := range c.Rec.Switches() {
		if sw.Duration() > 5*time.Minute {
			t.Fatalf("switch %s took %v > 5m", sw.Node, sw.Duration())
		}
		if !sw.OK {
			t.Fatalf("switch %s landed in the wrong OS", sw.Node)
		}
	}
}

func TestForceSwitch(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16})
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceSwitch("enode01", osid.Windows); err == nil {
		t.Fatal("double switch accepted")
	}
	if err := c.ForceSwitch("ghost", osid.Windows); err == nil {
		t.Fatal("unknown node accepted")
	}
	c.Eng.RunFor(time.Hour)
	n := c.byName["enode01"]
	if n.OS != osid.Windows {
		t.Fatalf("node OS = %v", n.OS)
	}
	if c.Win.OnlineNodes() != 1 {
		t.Fatalf("win online = %d", c.Win.OnlineNodes())
	}
	if c.PBS.AvailableNodes() != 15 {
		t.Fatalf("pbs available = %d", c.PBS.AvailableNodes())
	}
}

func TestBrokenBootMarksNode(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 16})
	// Sabotage enode01: delete the Windows boot file so a switch to
	// Windows fails in the chainloader.
	n := c.byName["enode01"]
	winPart, _ := n.HW.Disk.Partition(1)
	if err := winPart.RemoveFile("/bootmgr"); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	if !n.Broken {
		t.Fatal("node not marked broken")
	}
	if c.BrokenCount() != 1 {
		t.Fatalf("broken = %d", c.BrokenCount())
	}
	sw := c.Rec.Switches()
	if len(sw) != 1 || sw[0].OK {
		t.Fatalf("switch records = %+v", sw)
	}
}

// TestSampleSeries takes a snapshot at every tick of a run, the way a
// sampled scenario does, and checks what a node-shift curve needs.
func TestSampleSeries(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	trace := workload.Trace{winJob(0, 2, time.Hour)}
	var series []Snapshot
	c.Eng.Every(10*time.Minute, func() { series = append(series, c.TakeSnapshot()) })
	sum := runTrace(c, trace, 12*time.Hour)
	if len(series) == 0 {
		t.Fatal("no snapshots")
	}
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
	// Node counts must shift toward Windows somewhere in the series.
	sawWindows := false
	for _, s := range series {
		if s.WindowsNodes > 0 {
			sawWindows = true
		}
		if s.LinuxNodes+s.WindowsNodes+s.Switching+s.Broken != 16 {
			t.Fatalf("node conservation violated: %+v", s)
		}
	}
	if !sawWindows {
		t.Fatal("series never showed windows nodes")
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newCluster(t, Config{Mode: Static})
	if _, err := c.Submit(workload.Job{App: "x", OS: osid.None, Nodes: 1, PPN: 1, Runtime: time.Minute}); err == nil {
		t.Fatal("OS-less job accepted")
	}
}

func TestSmallPPNWindowsJobUsesCoreScheduling(t *testing.T) {
	c := newCluster(t, Config{Mode: Static, InitialLinux: 8})
	j := workload.Job{At: 0, App: "MATLAB", OS: osid.Windows, Owner: "u",
		Nodes: 1, PPN: 2, Runtime: 30 * time.Minute}
	h, err := c.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	if id := c.Rec.JobID(h); id != "W1" {
		t.Fatalf("id = %q, want W1", id)
	}
	c.Eng.RunFor(time.Hour)
	if c.Rec.Unfinished() != 0 {
		t.Fatalf("unfinished = %d", c.Rec.Unfinished())
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		HybridV1: "hybrid-v1", HybridV2: "hybrid-v2",
		Static: "static-split", MonoStable: "mono-stable", Mode(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d = %q", m, m.String())
		}
	}
}

func TestSwitchJobScriptParsesAsFigure4(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1})
	script := c.SwitchJobScript(osid.Windows)
	parsed, err := pbs.ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Request.Name != "release_1_node" || parsed.Request.Nodes != 1 || parsed.Request.PPN != 4 {
		t.Fatalf("request = %+v", parsed.Request)
	}
	if parsed.Request.Rerun {
		t.Fatal("switch job must not be rerunnable (-r n)")
	}
	if !strings.Contains(script, "bootcontrol.pl /boot/swap/controlmenu.lst windows") {
		t.Fatalf("script:\n%s", script)
	}
}

func TestEventsLogged(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(c, workload.Trace{winJob(0, 1, 30*time.Minute)}, 24*time.Hour)
	var sawFlag, sawSwitch bool
	for _, e := range c.Events() {
		if strings.Contains(e.What, "flag -> windows") {
			sawFlag = true
		}
		if strings.Contains(e.What, "up in windows") {
			sawSwitch = true
		}
	}
	if !sawFlag || !sawSwitch {
		t.Fatalf("events missing flag/switch: %+v", c.Events())
	}
}

func TestSwitchLatencyEstimate(t *testing.T) {
	v1 := newCluster(t, Config{Mode: HybridV1})
	v2 := newCluster(t, Config{Mode: HybridV2})
	for _, target := range []osid.OS{osid.Linux, osid.Windows} {
		e1, e2 := v1.SwitchLatencyEstimate(target), v2.SwitchLatencyEstimate(target)
		if e1 > 5*time.Minute || e2 > 5*time.Minute {
			t.Fatalf("estimates exceed 5m: v1=%v v2=%v", e1, e2)
		}
	}
}

// A trace job the scheduler rejects must not vanish from the books:
// the run drains (the job never entered the system) but the failure
// is counted in the summary and logged.
func TestSubmitFailuresSurfaceInSummary(t *testing.T) {
	// 40 nodes exceed the 16-node machine: Torque rejects at qsub.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	trace := workload.Trace{
		linJob(0, 2, time.Hour),
		{At: time.Minute, App: "LAMMPS", OS: osid.Linux, Owner: "u", Nodes: 40, PPN: 4, Runtime: time.Hour},
	}
	sum := runTrace(c, trace, 24*time.Hour)
	if sum.SubmitFailures != 1 {
		t.Fatalf("SubmitFailures = %d, want 1", sum.SubmitFailures)
	}
	var logged []string
	for _, e := range c.Events() {
		if strings.HasPrefix(e.What, "submit ") {
			logged = append(logged, e.What)
		}
	}
	if len(logged) != 1 || !strings.HasPrefix(logged[0], "submit LAMMPS failed: ") {
		t.Fatalf("submit lines logged: %q", logged)
	}
	if sum.JobsCompleted[osid.Linux] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
	if c.Rec.Unfinished() != 0 {
		t.Fatalf("accounting dirty: unfinished=%d", c.Rec.Unfinished())
	}
}

// A non-rerunnable PBS job that dies with its node must not count as
// completed anywhere: its row ends with Completed false and the
// summary books zero completions. (A previous revision checked
// only the walltime kill, so a job that died mid-run from node loss
// counted as successfully completed in every utilisation/completion
// metric.)
func TestInterruptedNonRerunnableJobNotCounted(t *testing.T) {
	c := newCluster(t, Config{Mode: Static, Nodes: 2, InitialLinux: 2})
	j, err := c.PBS.Qsub(pbs.SubmitRequest{Name: "fragile", Owner: "u@x",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h := c.track(&c.pbsJobs, j.SeqNo(), workload.Job{App: "fragile", OS: osid.Linux, Owner: "u",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	c.Eng.RunUntil(time.Minute)
	if j.State != pbs.StateRunning {
		t.Fatalf("job state = %v, want running", j.State)
	}
	if err := c.PBS.SetNodeAvailable(c.PBS.ExecHost(j)[0].Node, false); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(2 * time.Minute)
	if row := c.Rec.Jobs()[h]; row.Ended == 0 || row.Completed {
		t.Fatalf("row of the job that died with its node: %+v, want ended and not completed", row)
	}
	if c.Rec.Unfinished() != 0 {
		t.Fatalf("unfinished = %d after the job died", c.Rec.Unfinished())
	}
	sum := c.Summary()
	if sum.JobsSubmitted[osid.Linux] != 1 || sum.JobsCompleted[osid.Linux] != 0 {
		t.Fatalf("submitted/completed = %d/%d, want 1/0",
			sum.JobsSubmitted[osid.Linux], sum.JobsCompleted[osid.Linux])
	}
}

// A rerunnable workload job requeued by node loss keeps first-start
// wait semantics end to end: the recorder books the original start,
// counts the restart, and still reports the job completed.
func TestRequeuedJobKeepsFirstStartAccounting(t *testing.T) {
	c := newCluster(t, Config{Mode: Static, Nodes: 2, InitialLinux: 2})
	h, err := c.Submit(workload.Job{App: "DL_POLY", OS: osid.Linux, Owner: "u",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(10 * time.Minute)
	j, err := c.PBS.Job(c.Rec.JobID(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PBS.SetNodeAvailable(c.PBS.ExecHost(j)[0].Node, false); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	recs := c.Rec.Jobs()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if !rec.Completed {
		t.Fatal("requeued job did not complete")
	}
	if rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rec.Restarts)
	}
	// First start was at submission (t=0, empty cluster), not the 10m
	// restart: the wait must not deflate to the last attempt.
	if rec.Started >= 10*time.Minute {
		t.Fatalf("recorded start %v is the restart, want the first start", rec.Started)
	}
}

// A negative InitialLinux pins every node to Windows — the only way
// to express a Windows-only static split.
func TestNegativeInitialLinuxMeansAllWindows(t *testing.T) {
	c := newCluster(t, Config{Mode: Static, Nodes: 4, InitialLinux: -1})
	if c.NodesOn(osid.Windows) != 4 || c.NodesOn(osid.Linux) != 0 {
		t.Fatalf("split = %d linux / %d windows",
			c.NodesOn(osid.Linux), c.NodesOn(osid.Windows))
	}
}
