package pbs

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func newTestServer(t *testing.T, nodes int) (*simtime.Engine, *Server) {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewServer(eng, "eridani.qgg.hud.ac.uk")
	for i := 1; i <= nodes; i++ {
		if _, err := s.AddNode(nodeName(i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	return eng, s
}

func nodeName(i int) string {
	return "enode" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestServerName(t *testing.T) {
	_, s := newTestServer(t, 1)
	if s.Name() != "eridani.qgg.hud.ac.uk" {
		t.Fatalf("Name() = %q", s.Name())
	}
}

func TestQsubAssignsSequentialIDs(t *testing.T) {
	eng, s := newTestServer(t, 2)
	j1, err := s.Qsub(SubmitRequest{Name: "a", Runtime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.Qsub(SubmitRequest{Name: "b", Runtime: time.Minute})
	if s.ID(j1) != "1.eridani.qgg.hud.ac.uk" || s.ID(j2) != "2.eridani.qgg.hud.ac.uk" {
		t.Fatalf("IDs = %q, %q", s.ID(j1), s.ID(j2))
	}
	eng.Run()
}

func TestFCFSRunsJobToCompletion(t *testing.T) {
	eng, s := newTestServer(t, 1)
	var started, ended time.Duration
	j, err := s.Qsub(SubmitRequest{
		Name: "sleep", Nodes: 1, PPN: 4, Runtime: 10 * time.Minute,
		OnEnd: func(j *Job) { ended = eng.Now() },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.OnJobStart = func(job *Job) { started = eng.Now() }
	eng.Run()
	if j.State != StateComplete {
		t.Fatalf("state = %v", j.State)
	}
	if started != 0 {
		t.Fatalf("started at %v, want 0", started)
	}
	if ended != 10*time.Minute {
		t.Fatalf("ended at %v, want 10m", ended)
	}
	if len(s.ExecHost(j)) != 4 {
		t.Fatalf("exec slots = %d", len(s.ExecHost(j)))
	}
}

func TestExclusiveNodeAllocation(t *testing.T) {
	eng, s := newTestServer(t, 2)
	jA, _ := s.Qsub(SubmitRequest{Name: "a", Nodes: 1, PPN: 4, Runtime: time.Hour})
	jB, _ := s.Qsub(SubmitRequest{Name: "b", Nodes: 1, PPN: 4, Runtime: time.Hour})
	jC, _ := s.Qsub(SubmitRequest{Name: "c", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	if jA.State != StateRunning || jB.State != StateRunning {
		t.Fatalf("a=%v b=%v", jA.State, jB.State)
	}
	if jC.State != StateQueued {
		t.Fatalf("c=%v, want queued (cluster full)", jC.State)
	}
	// a and b end at 1h, freeing both nodes; c starts.
	eng.RunUntil(61 * time.Minute)
	if jC.State != StateRunning {
		t.Fatalf("c=%v after backlog drained", jC.State)
	}
	eng.Run()
	if jC.State != StateComplete {
		t.Fatalf("c=%v at end", jC.State)
	}
}

func TestMultiNodeJob(t *testing.T) {
	eng, s := newTestServer(t, 4)
	j, _ := s.Qsub(SubmitRequest{Name: "mpi", Nodes: 3, PPN: 4, Runtime: time.Minute})
	eng.RunUntil(time.Second)
	if j.State != StateRunning {
		t.Fatalf("state = %v", j.State)
	}
	hosts := map[string]bool{}
	for _, slot := range s.ExecHost(j) {
		hosts[slot.Node] = true
	}
	if len(hosts) != 3 || len(s.ExecHost(j)) != 12 {
		t.Fatalf("hosts = %v, slots = %d", hosts, len(s.ExecHost(j)))
	}
	eng.Run()
}

func TestPartialNodeSharing(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j1, _ := s.Qsub(SubmitRequest{Name: "a", Nodes: 1, PPN: 2, Runtime: time.Hour})
	j2, _ := s.Qsub(SubmitRequest{Name: "b", Nodes: 1, PPN: 2, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if j1.State != StateRunning || j2.State != StateRunning {
		t.Fatalf("two ppn=2 jobs should share one 4-core node: %v %v", j1.State, j2.State)
	}
	n, _ := s.Node(nodeName(1))
	if n.State() != NodeExclusive {
		t.Fatalf("full node state = %v", n.State())
	}
	eng.Run()
}

func TestStrictFCFSHeadOfLineBlocking(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Qsub(SubmitRequest{Name: "big", Nodes: 2, PPN: 4, Runtime: 2 * time.Hour})
	eng.RunUntil(time.Second)
	// Head job takes the whole cluster; a wide job queues behind it,
	// and strict FCFS must not let a small job jump the wide one.
	wide, _ := s.Qsub(SubmitRequest{Name: "wide", Nodes: 2, PPN: 4, Runtime: time.Hour})
	small, _ := s.Qsub(SubmitRequest{Name: "small", Nodes: 1, PPN: 1, Runtime: time.Minute})
	eng.RunUntil(time.Hour)
	if wide.State != StateQueued || small.State != StateQueued {
		t.Fatalf("wide=%v small=%v, want both queued behind the blocker", wide.State, small.State)
	}
	eng.Run()
	if wide.StartTime >= small.StartTime {
		t.Fatalf("small (start %v) jumped wide (start %v)", small.StartTime, wide.StartTime)
	}
}

func TestBackfillExtension(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Backfill = true
	// One node down: the 2-node head job is feasible on the configured
	// table but cannot start, so backfill lets the small job through.
	s.SetNodeAvailable(nodeName(2), false)
	head, _ := s.Qsub(SubmitRequest{Name: "head", Nodes: 2, PPN: 4, Runtime: time.Hour})
	small, _ := s.Qsub(SubmitRequest{Name: "small", Nodes: 1, PPN: 1, Runtime: time.Minute})
	eng.RunUntil(time.Second)
	if head.State != StateQueued {
		t.Fatalf("head = %v", head.State)
	}
	if small.State != StateRunning {
		t.Fatalf("small = %v, want running via backfill", small.State)
	}
	s.SetNodeAvailable(nodeName(2), true)
	eng.Run()
}

func TestQsubRejectsInfeasibleRequests(t *testing.T) {
	_, s := newTestServer(t, 2)
	// More nodes than the cluster has.
	if _, err := s.Qsub(SubmitRequest{Name: "huge", Nodes: 3, PPN: 4, Runtime: time.Hour}); err == nil {
		t.Fatal("3-node job accepted on a 2-node cluster")
	}
	// PPN beyond any node's core count.
	if _, err := s.Qsub(SubmitRequest{Name: "fat", Nodes: 1, PPN: 8, Runtime: time.Hour}); err == nil {
		t.Fatal("ppn=8 accepted on 4-core nodes")
	}
	// Down nodes still count as configured: the hybrid's other-side
	// nodes may boot back any time.
	s.SetNodeAvailable(nodeName(1), false)
	s.SetNodeAvailable(nodeName(2), false)
	if _, err := s.Qsub(SubmitRequest{Name: "ok", Nodes: 2, PPN: 4, Runtime: time.Hour}); err != nil {
		t.Fatalf("feasible-but-down request rejected: %v", err)
	}
}

func TestWalltimeKill(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j, _ := s.Qsub(SubmitRequest{Name: "over", Runtime: time.Hour, Walltime: 10 * time.Minute})
	eng.Run()
	if j.State != StateComplete || !j.KilledAtWalltime() {
		t.Fatalf("state=%v killed=%v", j.State, j.KilledAtWalltime())
	}
	if j.EndTime != 10*time.Minute {
		t.Fatalf("end = %v", j.EndTime)
	}
}

func TestQdelQueuedAndRunning(t *testing.T) {
	eng, s := newTestServer(t, 1)
	var ended []string
	s.OnJobEnd = func(j *Job) { ended = append(ended, s.ID(j)) }
	run, _ := s.Qsub(SubmitRequest{Name: "r", Nodes: 1, PPN: 4, Runtime: time.Hour})
	wait, _ := s.Qsub(SubmitRequest{Name: "w", Nodes: 1, PPN: 4, Runtime: time.Hour})
	held, _ := s.Qsub(SubmitRequest{Name: "h", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	if err := s.Qhold(s.ID(held)); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{wait, held} {
		if err := s.Qdel(s.ID(j)); err != nil {
			t.Fatal(err)
		}
		if j.State != StateComplete || !j.KilledAtWalltime() || j.EndTime != time.Minute {
			t.Fatalf("qdel of waiting job %s: state %v killed %v end %v", s.Str(j.Name), j.State, j.KilledAtWalltime(), j.EndTime)
		}
	}
	if len(ended) != 2 || ended[0] != s.ID(wait) || ended[1] != s.ID(held) {
		t.Fatalf("end hook fired for %v, want the queued and the held job", ended)
	}
	if err := s.Qdel(s.ID(run)); err != nil {
		t.Fatal(err)
	}
	if run.State != StateComplete {
		t.Fatalf("running qdel state = %v", run.State)
	}
	n, _ := s.Node(nodeName(1))
	if n.FreeCPUs() != 4 {
		t.Fatalf("cpus not released: %d free", n.FreeCPUs())
	}
	if err := s.Qdel("999.x"); err == nil {
		t.Fatal("qdel of unknown job succeeded")
	}
	eng.Run()
}

func TestNodeDownRequeuesRerunnable(t *testing.T) {
	eng, s := newTestServer(t, 2)
	j, _ := s.Qsub(SubmitRequest{Name: "rerun", Nodes: 1, PPN: 4, Runtime: time.Hour, Rerun: true})
	eng.RunUntil(time.Minute)
	if j.State != StateRunning {
		t.Fatal("not running")
	}
	victim := s.ExecHost(j)[0].Node
	if err := s.SetNodeAvailable(victim, false); err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Fatalf("state after node loss = %v, want Q (rerunnable)", j.State)
	}
	// It restarts on the surviving node.
	eng.RunUntil(2 * time.Minute)
	if j.State != StateRunning {
		t.Fatalf("state = %v, want rescheduled", j.State)
	}
	if s.ExecHost(j)[0].Node == victim {
		t.Fatal("rescheduled onto the dead node")
	}
}

func TestNodeDownKillsNonRerunnable(t *testing.T) {
	eng, s := newTestServer(t, 1)
	ended := false
	j, _ := s.Qsub(SubmitRequest{Name: "fragile", Nodes: 1, PPN: 4, Runtime: time.Hour,
		OnEnd: func(*Job) { ended = true }})
	eng.RunUntil(time.Minute)
	s.SetNodeAvailable(s.ExecHost(j)[0].Node, false)
	if j.State != StateComplete || !ended {
		t.Fatalf("state=%v ended=%v", j.State, ended)
	}
	// The job died mid-run: it must carry the explicit failure signal
	// (it was NOT killed at a walltime limit, and treating it as a
	// clean completion would count a dead job as successful work).
	if !j.Failed() {
		t.Fatal("interrupted non-rerunnable job not marked failed")
	}
	if j.KilledAtWalltime() {
		t.Fatal("node-loss interrupt misreported as a walltime kill")
	}
}

func TestRequeueFiresOnJobRequeueNotEnd(t *testing.T) {
	eng, s := newTestServer(t, 2)
	var requeued, ended int
	s.OnJobRequeue = func(*Job) { requeued++ }
	s.OnJobEnd = func(*Job) { ended++ }
	j, _ := s.Qsub(SubmitRequest{Name: "rerun", Nodes: 1, PPN: 4, Runtime: time.Hour, Rerun: true})
	eng.RunUntil(time.Minute)
	s.SetNodeAvailable(s.ExecHost(j)[0].Node, false)
	if requeued != 1 || ended != 0 {
		t.Fatalf("requeued=%d ended=%d after node loss", requeued, ended)
	}
	eng.Run()
	if requeued != 1 || ended != 1 {
		t.Fatalf("requeued=%d ended=%d after drain", requeued, ended)
	}
	if j.Failed() {
		t.Fatal("rerun job that completed on its second attempt marked failed")
	}
}

func TestNodeOfflineDrainsWithoutKilling(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j, _ := s.Qsub(SubmitRequest{Name: "j", Nodes: 1, PPN: 4, Runtime: 30 * time.Minute})
	eng.RunUntil(time.Minute)
	if err := s.SetNodeOffline(nodeName(1), true); err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("offline killed the job: %v", j.State)
	}
	// New work does not start on the offline node.
	j2, _ := s.Qsub(SubmitRequest{Name: "j2", Nodes: 1, PPN: 1, Runtime: time.Minute})
	eng.Run()
	if j2.State != StateQueued {
		t.Fatalf("j2 = %v, want queued on drained cluster", j2.State)
	}
	s.SetNodeOffline(nodeName(1), false)
	eng.Run()
	if j2.State != StateComplete {
		t.Fatalf("j2 = %v after node back online", j2.State)
	}
}

func TestNodeJoinsDownThenComesUp(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "eridani.qgg")
	s.AddNode("w1", 4, false) // currently booted into Windows
	j, _ := s.Qsub(SubmitRequest{Name: "j", Runtime: time.Minute})
	eng.RunUntil(time.Minute)
	if j.State != StateQueued {
		t.Fatalf("job ran on a down node: %v", j.State)
	}
	if s.TotalCPUs() != 0 {
		t.Fatalf("TotalCPUs = %d with all nodes down", s.TotalCPUs())
	}
	s.SetNodeAvailable("w1", true)
	eng.Run()
	if j.State != StateComplete {
		t.Fatalf("job = %v after node came up", j.State)
	}
}

func TestAddNodeValidation(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "h.d")
	if _, err := s.AddNode("n", 0, true); err == nil {
		t.Fatal("np=0 accepted")
	}
	if _, err := s.AddNode("n", 4, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode("n", 4, true); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := s.Node("missing"); err == nil {
		t.Fatal("unknown node lookup succeeded")
	}
	if err := s.SetNodeAvailable("missing", true); err == nil {
		t.Fatal("SetNodeAvailable on unknown node succeeded")
	}
	if err := s.SetNodeOffline("missing", true); err == nil {
		t.Fatal("SetNodeOffline on unknown node succeeded")
	}
}

func TestExecCallbackReceivesHosts(t *testing.T) {
	eng, s := newTestServer(t, 2)
	var hosts []string
	s.Qsub(SubmitRequest{Name: "switch", Nodes: 1, PPN: 4, Runtime: 10 * time.Second,
		Exec: func(h []string) { hosts = h }})
	eng.Run()
	if len(hosts) != 1 {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestQueuedAndRunningViews(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.Qsub(SubmitRequest{Name: "a", Nodes: 1, PPN: 4, Runtime: time.Hour})
	s.Qsub(SubmitRequest{Name: "b", Nodes: 1, PPN: 4, Runtime: time.Hour})
	s.Qsub(SubmitRequest{Name: "c", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if len(s.RunningJobs()) != 1 || len(s.QueuedJobs()) != 2 {
		t.Fatalf("R=%d Q=%d", len(s.RunningJobs()), len(s.QueuedJobs()))
	}
	if s.Str(s.QueuedJobs()[0].Name) != "b" {
		t.Fatalf("queue order wrong: %v", s.Str(s.QueuedJobs()[0].Name))
	}
}

func TestJobLookup(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j, _ := s.Qsub(SubmitRequest{Name: "x", Runtime: time.Second})
	got, err := s.Job(s.ID(j))
	if err != nil || got != j {
		t.Fatalf("Job() = %v, %v", got, err)
	}
	if _, err := s.Job("nope"); err == nil {
		t.Fatal("unknown job lookup succeeded")
	}
	eng.Run()
}

func TestEmptyRequestDefaults(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j, err := s.Qsub(SubmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Nodes() != 1 || j.PPN() != 1 || s.Str(j.Name) != "STDIN" || s.Str(j.Owner) != "nobody" || s.Str(j.Queue) != "default" {
		t.Fatalf("defaults = %+v", j)
	}
	eng.Run()
}

func TestNegativeRuntimeRejected(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.Qsub(SubmitRequest{Runtime: -time.Second}); err == nil {
		t.Fatal("negative runtime accepted")
	}
}

func TestWaitTimes(t *testing.T) {
	eng, s := newTestServer(t, 1)
	a, _ := s.Qsub(SubmitRequest{Name: "a", Nodes: 1, PPN: 4, Runtime: time.Hour})
	b, _ := s.Qsub(SubmitRequest{Name: "b", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.Run()
	if a.StartTime != 0 {
		t.Fatalf("a start = %v", a.StartTime)
	}
	if b.StartTime != time.Hour {
		t.Fatalf("b start = %v, want 1h", b.StartTime)
	}
	if b.QTime != 0 {
		t.Fatalf("b qtime = %v", b.QTime)
	}
}
