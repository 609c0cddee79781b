package winhpc

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func newTestScheduler(t *testing.T, nodes int) (*simtime.Engine, *Scheduler) {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "WINHEAD")
	for i := 1; i <= nodes; i++ {
		if _, err := s.AddNode(nodeName(i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	return eng, s
}

func nodeName(i int) string {
	return "ENODE" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSubmitRunFinish(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	var endedAt time.Duration
	j, err := s.SubmitJob(JobSpec{Name: "render", Unit: UnitCore, Count: 4,
		Runtime: 20 * time.Minute, OnEnd: func(*Job) { endedAt = eng.Now() }})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != JobFinished {
		t.Fatalf("state = %v", j.State)
	}
	if endedAt != 20*time.Minute {
		t.Fatalf("ended at %v", endedAt)
	}
	if j.ID() != 1 {
		t.Fatalf("id = %d", j.ID())
	}
}

func TestCoreSchedulingSpansNodes(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	j, _ := s.SubmitJob(JobSpec{Name: "wide", Unit: UnitCore, Count: 6, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if j.State != JobRunning {
		t.Fatalf("state = %v", j.State)
	}
	if len(s.Allocations(j)) != 2 || s.Allocations(j)[0].Cores != 4 || s.Allocations(j)[1].Cores != 2 {
		t.Fatalf("alloc = %+v", s.Allocations(j))
	}
	n2, _ := s.Node(nodeName(2))
	if n2.FreeCores() != 2 {
		t.Fatalf("n2 free = %d", n2.FreeCores())
	}
}

func TestNodeExclusiveScheduling(t *testing.T) {
	eng, s := newTestScheduler(t, 3)
	small, _ := s.SubmitJob(JobSpec{Name: "small", Unit: UnitCore, Count: 1, Runtime: time.Hour})
	mpi, _ := s.SubmitJob(JobSpec{Name: "mpi", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if small.State != JobRunning || mpi.State != JobRunning {
		t.Fatalf("small=%v mpi=%v", small.State, mpi.State)
	}
	// The node running "small" is not exclusive, so mpi takes nodes 2 and 3.
	nodes := s.AllocatedNodes(mpi)
	if len(nodes) != 2 || nodes[0] != nodeName(2) || nodes[1] != nodeName(3) {
		t.Fatalf("mpi nodes = %v", nodes)
	}
}

func TestFCFSBlocking(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.SubmitJob(JobSpec{Name: "big", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	blocked, _ := s.SubmitJob(JobSpec{Name: "blocked", Unit: UnitNode, Count: 2, Runtime: time.Minute})
	small, _ := s.SubmitJob(JobSpec{Name: "small", Unit: UnitCore, Count: 1, Runtime: time.Minute})
	eng.RunUntil(30 * time.Minute)
	if blocked.State != JobQueued || small.State != JobQueued {
		t.Fatalf("blocked=%v small=%v, want queued behind head", blocked.State, small.State)
	}
	eng.Run()
}

func TestBackfill(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.Backfill = true
	// One node unreachable: the 2-node head job is feasible but cannot
	// start, so backfill lets the core job through.
	s.SetNodeOnline(nodeName(2), false)
	head, _ := s.SubmitJob(JobSpec{Name: "head", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	small, _ := s.SubmitJob(JobSpec{Name: "small", Unit: UnitCore, Count: 2, Runtime: time.Minute})
	eng.RunUntil(time.Second)
	if head.State != JobQueued {
		t.Fatalf("head = %v", head.State)
	}
	if small.State != JobRunning {
		t.Fatalf("small = %v", small.State)
	}
	s.SetNodeOnline(nodeName(2), true)
	eng.Run()
}

func TestSubmitRejectsInfeasible(t *testing.T) {
	_, s := newTestScheduler(t, 2)
	if _, err := s.SubmitJob(JobSpec{Name: "huge", Unit: UnitNode, Count: 3, Runtime: time.Hour}); err == nil {
		t.Fatal("3-node job accepted on 2-node cluster")
	}
	if _, err := s.SubmitJob(JobSpec{Name: "wide", Unit: UnitCore, Count: 9, Runtime: time.Hour}); err == nil {
		t.Fatal("9-core job accepted on 8-core cluster")
	}
	// Unreachable nodes still count as configured capacity.
	s.SetNodeOnline(nodeName(1), false)
	s.SetNodeOnline(nodeName(2), false)
	if _, err := s.SubmitJob(JobSpec{Name: "ok", Unit: UnitNode, Count: 2, Runtime: time.Hour}); err != nil {
		t.Fatalf("feasible-but-unreachable request rejected: %v", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	run, _ := s.SubmitJob(JobSpec{Name: "r", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	wait, _ := s.SubmitJob(JobSpec{Name: "w", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	if err := s.CancelJob(wait.ID()); err != nil {
		t.Fatal(err)
	}
	if wait.State != JobCanceled {
		t.Fatalf("wait = %v", wait.State)
	}
	if err := s.CancelJob(run.ID()); err != nil {
		t.Fatal(err)
	}
	if run.State != JobCanceled {
		t.Fatalf("run = %v", run.State)
	}
	if err := s.CancelJob(run.ID()); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if err := s.CancelJob(99); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
	n, _ := s.Node(nodeName(1))
	if n.FreeCores() != 4 {
		t.Fatalf("cores leaked: free = %d", n.FreeCores())
	}
	eng.Run()
}

func TestNodeUnreachableRequeuesRerunnable(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	j, _ := s.SubmitJob(JobSpec{Name: "ga", Unit: UnitNode, Count: 1, Runtime: time.Hour, Rerun: true})
	eng.RunUntil(time.Minute)
	victim := s.AllocatedNodes(j)[0]
	if err := s.SetNodeOnline(victim, false); err != nil {
		t.Fatal(err)
	}
	if j.State != JobQueued {
		t.Fatalf("state = %v, want requeued", j.State)
	}
	eng.RunUntil(2 * time.Minute)
	if j.State != JobRunning || s.AllocatedNodes(j)[0] == victim {
		t.Fatalf("state=%v nodes=%v", j.State, s.AllocatedNodes(j))
	}
}

func TestNodeUnreachableFailsNonRerunnable(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	failed := false
	j, _ := s.SubmitJob(JobSpec{Name: "frail", Unit: UnitNode, Count: 1, Runtime: time.Hour,
		OnEnd: func(*Job) { failed = true }})
	eng.RunUntil(time.Minute)
	s.SetNodeOnline(s.AllocatedNodes(j)[0], false)
	if j.State != JobFailed || !failed {
		t.Fatalf("state=%v notified=%v", j.State, failed)
	}
}

func TestOfflineDrains(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	j, _ := s.SubmitJob(JobSpec{Name: "j", Unit: UnitCore, Count: 2, Runtime: 30 * time.Minute})
	eng.RunUntil(time.Minute)
	if err := s.SetNodeOffline(nodeName(1), true); err != nil {
		t.Fatal(err)
	}
	if j.State != JobRunning {
		t.Fatalf("offline killed job: %v", j.State)
	}
	j2, _ := s.SubmitJob(JobSpec{Name: "j2", Unit: UnitCore, Count: 1, Runtime: time.Minute})
	eng.Run()
	if j2.State != JobQueued {
		t.Fatalf("j2 = %v on drained node", j2.State)
	}
	s.SetNodeOffline(nodeName(1), false)
	eng.Run()
	if j2.State != JobFinished {
		t.Fatalf("j2 = %v", j2.State)
	}
}

func TestSnapshot(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.SubmitJob(JobSpec{Name: "r1", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	s.SubmitJob(JobSpec{Name: "q1", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	s.SubmitJob(JobSpec{Name: "q2", Unit: UnitCore, Count: 2, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	snap := s.Snapshot()
	if snap.Running != 1 || snap.Queued != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.FirstQueued == 0 || snap.FirstName != "q1" {
		t.Fatalf("head = %+v", snap)
	}
	if snap.NeededCores != 4 {
		t.Fatalf("needed = %d (UnitNode on quad-core)", snap.NeededCores)
	}
	if snap.PendingCores != 6 {
		t.Fatalf("pending = %d", snap.PendingCores)
	}
	if snap.OnlineCores != 8 {
		t.Fatalf("online = %d", snap.OnlineCores)
	}
}

func TestSnapshotEmptyQueue(t *testing.T) {
	_, s := newTestScheduler(t, 1)
	snap := s.Snapshot()
	if snap.Running != 0 || snap.Queued != 0 || snap.FirstQueued != 0 || snap.NeededCores != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestAddNodeValidation(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "W")
	if _, err := s.AddNode("n", 0, true); err == nil {
		t.Fatal("0 cores accepted")
	}
	if _, err := s.AddNode("n", 4, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode("n", 4, true); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := s.Node("x"); err == nil {
		t.Fatal("unknown node lookup succeeded")
	}
	if err := s.SetNodeOnline("x", true); err == nil {
		t.Fatal("SetNodeOnline on unknown node succeeded")
	}
	if err := s.SetNodeOffline("x", true); err == nil {
		t.Fatal("SetNodeOffline on unknown node succeeded")
	}
	if _, err := s.SubmitJob(JobSpec{Runtime: -1}); err == nil {
		t.Fatal("negative runtime accepted")
	}
}

func TestDefaults(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	j, err := s.SubmitJob(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Str(j.Name) != "Job" || s.Str(j.Owner) != "HPC\\user" || j.Count() != 1 || j.Unit != UnitCore {
		t.Fatalf("defaults = %+v", j)
	}
	eng.Run()
}

func TestNodesJoinUnreachable(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "W")
	s.AddNode("n1", 4, false)
	j, _ := s.SubmitJob(JobSpec{Name: "j", Unit: UnitCore, Count: 1, Runtime: time.Minute})
	eng.RunUntil(time.Minute)
	if j.State != JobQueued {
		t.Fatalf("job ran on unreachable node: %v", j.State)
	}
	if s.TotalCores() != 0 || s.OnlineNodes() != 0 {
		t.Fatalf("capacity = %d/%d", s.TotalCores(), s.OnlineNodes())
	}
	s.SetNodeOnline("n1", true)
	eng.Run()
	if j.State != JobFinished {
		t.Fatalf("j = %v", j.State)
	}
}

func TestExecCallback(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	var got []string
	s.SubmitJob(JobSpec{Name: "cb", Unit: UnitNode, Count: 2, Runtime: time.Second,
		Exec: func(nodes []string) { got = nodes }})
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("exec nodes = %v", got)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[JobState]string{
		JobQueued: "Queued", JobRunning: "Running", JobFinished: "Finished",
		JobFailed: "Failed", JobCanceled: "Canceled", JobState(99): "Unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if UnitCore.String() != "Core" || UnitNode.String() != "Node" {
		t.Error("unit strings wrong")
	}
	if NodeOnline.String() != "Online" || NodeOffline.String() != "Offline" || NodeUnreachable.String() != "Unreachable" {
		t.Error("node state strings wrong")
	}
}

func TestJobsViews(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	s.SubmitJob(JobSpec{Name: "a", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	s.SubmitJob(JobSpec{Name: "b", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if len(s.Jobs()) != 2 || len(s.RunningJobs()) != 1 || len(s.QueuedJobs()) != 1 {
		t.Fatalf("views: %d/%d/%d", len(s.Jobs()), len(s.RunningJobs()), len(s.QueuedJobs()))
	}
	if _, err := s.Job(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job(42); err == nil {
		t.Fatal("unknown id lookup succeeded")
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	// Fill the node first, then queue three jobs at different priorities.
	s.SubmitJob(JobSpec{Name: "filler", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	low, _ := s.SubmitJob(JobSpec{Name: "low", Unit: UnitNode, Count: 1, Runtime: time.Minute, Priority: PriorityLowest})
	normal, _ := s.SubmitJob(JobSpec{Name: "normal", Unit: UnitNode, Count: 1, Runtime: time.Minute})
	high, _ := s.SubmitJob(JobSpec{Name: "high", Unit: UnitNode, Count: 1, Runtime: time.Minute, Priority: PriorityHighest})
	eng.RunUntil(2 * time.Second)
	queued := s.QueuedJobs()
	if queued[0] != high || queued[1] != normal || queued[2] != low {
		t.Fatalf("order = %v %v %v", s.Str(queued[0].Name), s.Str(queued[1].Name), s.Str(queued[2].Name))
	}
	eng.Run()
	if !(high.StartTime < normal.StartTime && normal.StartTime < low.StartTime) {
		t.Fatalf("starts: high=%v normal=%v low=%v", high.StartTime, normal.StartTime, low.StartTime)
	}
}

func TestPriorityTiePreservesSubmissionOrder(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	s.SubmitJob(JobSpec{Name: "filler", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	first, _ := s.SubmitJob(JobSpec{Name: "first", Unit: UnitNode, Count: 1, Runtime: time.Minute})
	second, _ := s.SubmitJob(JobSpec{Name: "second", Unit: UnitNode, Count: 1, Runtime: time.Minute})
	eng.Run()
	if first.StartTime >= second.StartTime {
		t.Fatalf("FIFO within priority broken: %v >= %v", first.StartTime, second.StartTime)
	}
}

func TestSnapshotHeadFollowsPriority(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	s.SubmitJob(JobSpec{Name: "filler", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	s.SubmitJob(JobSpec{Name: "norm", Unit: UnitCore, Count: 1, Runtime: time.Minute})
	s.SubmitJob(JobSpec{Name: "urgent", Unit: UnitCore, Count: 2, Runtime: time.Minute, Priority: PriorityHighest})
	eng.RunUntil(2 * time.Second)
	snap := s.Snapshot()
	if snap.FirstName != "urgent" || snap.NeededCores != 2 {
		t.Fatalf("snapshot head = %+v", snap)
	}
}

func TestPriorityStrings(t *testing.T) {
	for p, want := range map[Priority]string{
		PriorityLowest: "Lowest", PriorityBelowNormal: "BelowNormal",
		PriorityNormal: "Normal", PriorityAboveNormal: "AboveNormal",
		PriorityHighest: "Highest",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", p, p.String())
		}
	}
}
