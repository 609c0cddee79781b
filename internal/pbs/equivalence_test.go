package pbs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/simtime"
)

// The scheduling core (internal/sched) carries its own twin-core
// check: an incremental core against one rebuilt from scratch before
// every pass. This file checks what the Torque face keeps on top of
// the core — the census it reports, its queued and running views, the
// per-queue running counts behind queue admission, and the CPU slots
// behind pbsnodes' "cpu/jobid" lists — against a recompute from the
// ground truth: the job table and the node table.

// checkAgainstScratch recomputes the face's bookkeeping from the job
// and node tables and reports the first disagreement.
func checkAgainstScratch(s *Server) error {
	var queued, running []*Job
	queuedCPUs := 0
	perQueue := map[string]int{}
	owner := map[ExecSlot]*Job{}
	for _, j := range s.Jobs() {
		switch j.State {
		case StateQueued:
			queued = append(queued, j)
			queuedCPUs += j.CPUs()
		case StateRunning:
			running = append(running, j)
			perQueue[j.Queue]++
			for _, slot := range j.ExecHost {
				owner[slot] = j
			}
		}
	}
	if got, want := s.QueueStats(), (Stats{Running: len(running), Queued: len(queued), QueuedCPUs: queuedCPUs}); got != want {
		return fmt.Errorf("census %+v, scratch %+v", got, want)
	}
	if got := s.QueuedJobs(); !slices.Equal(got, queued) {
		return fmt.Errorf("queued view has %d jobs, scratch %d", len(got), len(queued))
	}
	if got := s.RunningJobs(); !slices.Equal(got, running) {
		return fmt.Errorf("running view has %d jobs, scratch %d", len(got), len(running))
	}
	if head := s.FirstQueued(); len(queued) > 0 && head != queued[0] || len(queued) == 0 && head != nil {
		return fmt.Errorf("FirstQueued = %v, want the oldest queued job", head)
	}
	for _, q := range s.Queues() {
		if q.running != perQueue[q.Name] {
			return fmt.Errorf("queue %s counts %d running, scratch %d", q.Name, q.running, perQueue[q.Name])
		}
	}
	cpus, up := 0, 0
	for _, n := range s.Nodes() {
		st := n.State()
		if st != NodeDown {
			cpus += n.NP
		}
		if st != NodeDown && st != NodeOffline {
			up++
		}
		used := 0
		for c, j := range n.busy {
			if j != owner[ExecSlot{Node: n.Name, CPU: c}] {
				return fmt.Errorf("%s cpu %d held by %v, exec hosts say %v", n.Name, c, j, owner[ExecSlot{Node: n.Name, CPU: c}])
			}
			if j != nil {
				used++
			}
		}
		if n.UsedCPUs() != used {
			return fmt.Errorf("%s reports %d used CPUs, slots say %d", n.Name, n.UsedCPUs(), used)
		}
	}
	if s.TotalCPUs() != cpus || s.AvailableNodes() != up {
		return fmt.Errorf("node census (%d cpus, %d up), scratch (%d, %d)", s.TotalCPUs(), s.AvailableNodes(), cpus, up)
	}
	return nil
}

// pbsAction is one scripted step of the randomized workload.
type pbsAction struct {
	at   time.Duration
	kind int // 0 submit, 1 hold, 2 release, 3 delete, 4 node down, 5 node up
	job  int // submission index for hold/release/delete
	node string
	req  SubmitRequest
}

// pbsScript generates a deterministic randomized workload: mixed-width
// jobs, holds and releases, deletions, and node outages (which requeue
// rerunnable jobs and exercise the revival paths of the queue ledger).
func pbsScript(seed int64, nodes, jobs int) []pbsAction {
	rng := rand.New(rand.NewSource(seed))
	var script []pbsAction
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		req := SubmitRequest{
			Name:    fmt.Sprintf("job%03d", i),
			Owner:   "eq",
			Nodes:   1 + rng.Intn(3),
			PPN:     1 + rng.Intn(4),
			Runtime: time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:   rng.Intn(4) != 0,
		}
		if i%5 == 0 {
			req.Queue = "capped" // exercises per-queue admission
		}
		if rng.Intn(3) == 0 {
			req.Walltime = req.Runtime + time.Duration(rng.Int63n(int64(time.Hour)))
		}
		script = append(script, pbsAction{at: at, kind: 0, job: i, req: req})
		switch rng.Intn(10) {
		case 0:
			h := at + time.Duration(rng.Int63n(int64(30*time.Minute)))
			script = append(script, pbsAction{at: h, kind: 1, job: i})
			script = append(script, pbsAction{at: h + time.Duration(rng.Int63n(int64(2*time.Hour))), kind: 2, job: i})
		case 1:
			script = append(script, pbsAction{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: 3, job: i})
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("eqnode%02d", 1+rng.Intn(nodes))
		down := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		script = append(script, pbsAction{at: down, kind: 4, node: name})
		script = append(script, pbsAction{at: down + time.Duration(rng.Int63n(int64(time.Hour))) + time.Minute, kind: 5, node: name})
	}
	return script
}

// runPBSScript drives one server through the script, checking its
// bookkeeping against the ground truth after every action.
func runPBSScript(t *testing.T, script []pbsAction, nodes int, backfill bool) *Server {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewServer(eng, "eq.test")
	s.Backfill = backfill
	q, err := s.CreateQueue("capped")
	if err != nil {
		t.Fatal(err)
	}
	q.MaxRunning = 3
	for i := 1; i <= nodes; i++ {
		if _, err := s.AddNode(fmt.Sprintf("eqnode%02d", i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, len(script))
	for _, a := range script {
		eng.After(a.at, func() {
			switch a.kind {
			case 0:
				j, err := s.Qsub(a.req)
				if err != nil {
					t.Errorf("qsub %s: %v", a.req.Name, err)
					return
				}
				ids[a.job] = j.ID
			case 1:
				_ = s.Qhold(ids[a.job]) // may legitimately race the start
			case 2:
				_ = s.Qrls(ids[a.job])
			case 3:
				_ = s.Qdel(ids[a.job])
			case 4:
				_ = s.SetNodeAvailable(a.node, false)
			case 5:
				_ = s.SetNodeAvailable(a.node, true)
			}
			if err := checkAgainstScratch(s); err != nil {
				t.Fatalf("after action %+v at %v: %v", a.kind, eng.Now(), err)
			}
		})
	}
	eng.Run()
	return s
}

// TestPBSIncrementalMatchesScratchRecompute runs a randomized workload
// of mixed-width jobs, holds, deletions, a capped queue and node
// outages through the server and requires its incremental bookkeeping
// to match a from-scratch recompute after every action, and every job
// to finish.
func TestPBSIncrementalMatchesScratchRecompute(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		name := "fcfs"
		if backfill {
			name = "backfill"
		}
		t.Run(name, func(t *testing.T) {
			s := runPBSScript(t, pbsScript(421, 12, 120), 12, backfill)
			if err := checkAgainstScratch(s); err != nil {
				t.Fatal(err)
			}
			for _, j := range s.Jobs() {
				if j.State != StateComplete {
					t.Fatalf("job %s ended in state %v", j.ID, j.State)
				}
			}
		})
	}
}
