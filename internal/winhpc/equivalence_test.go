package winhpc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/simtime"
)

// The scheduling core (internal/sched) carries its own twin-core
// check: an incremental core against one rebuilt from scratch before
// every pass. This file checks what the HPC Pack face reports on top
// of the core — the Snapshot census and queue head, the queued and
// running views, and per-node core use — against a recompute from the
// ground truth: the job table and the node table.

// checkAgainstScratch recomputes the face's views from the job and
// node tables and reports the first disagreement.
func checkAgainstScratch(s *Scheduler) error {
	var queued, running []*Job
	pending := 0
	used := map[string]int{}
	for _, j := range s.Jobs() {
		switch j.State {
		case JobQueued:
			queued = append(queued, j)
			pending += j.Cores(s.typicalCores())
		case JobRunning:
			running = append(running, j)
			for _, a := range s.Allocations(j) {
				used[a.Node] += a.Cores
			}
		}
	}
	sort.SliceStable(queued, func(i, k int) bool { return queued[i].Priority() > queued[k].Priority() })
	cores, online, onlineCores, idle := 0, 0, 0, 0
	for _, n := range s.Nodes() {
		if n.State() != NodeUnreachable {
			cores += n.Cores
		}
		if n.State() == NodeOnline {
			online++
			onlineCores += n.Cores
			if used[n.Name] == 0 {
				idle++
			}
		}
		if n.UsedCores() != used[n.Name] {
			return fmt.Errorf("%s reports %d used cores, allocations say %d", n.Name, n.UsedCores(), used[n.Name])
		}
	}
	want := QueueSnapshot{Running: len(running), Queued: len(queued), OnlineCores: onlineCores, PendingCores: pending, IdleNodes: idle}
	if len(queued) > 0 {
		want.FirstQueued, want.FirstName = queued[0].ID(), s.Str(queued[0].Name)
		want.NeededCores = queued[0].Cores(s.typicalCores())
	}
	if got := s.Snapshot(); got != want {
		return fmt.Errorf("snapshot %+v, scratch %+v", got, want)
	}
	if got := s.QueuedJobs(); !slices.Equal(got, queued) {
		return fmt.Errorf("queued view has %d jobs, scratch %d", len(got), len(queued))
	}
	if got := s.RunningJobs(); !slices.Equal(got, running) {
		return fmt.Errorf("running view has %d jobs, scratch %d", len(got), len(running))
	}
	if s.TotalCores() != cores || s.OnlineNodes() != online {
		return fmt.Errorf("node census (%d cores, %d online), scratch (%d, %d)", s.TotalCores(), s.OnlineNodes(), cores, online)
	}
	return nil
}

// winAction is one scripted step of the randomized workload.
type winAction struct {
	at   time.Duration
	kind int // 0 submit, 1 cancel, 2 node unreachable, 3 node online
	job  int // submission index for cancel
	node string
	spec JobSpec
}

// winScript generates a deterministic randomized workload: core- and
// node-unit jobs across all priority levels, cancellations, and node
// outages (which requeue rerunnable jobs through the priority-ordered
// revival path of the queue ledger).
func winScript(seed int64, nodes, jobs int) []winAction {
	rng := rand.New(rand.NewSource(seed))
	var script []winAction
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		spec := JobSpec{
			Name:     fmt.Sprintf("job%03d", i),
			Owner:    "eq",
			Runtime:  time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:    rng.Intn(4) != 0,
			Priority: Priority(rng.Intn(5) - 2),
		}
		if rng.Intn(3) == 0 {
			spec.Unit = UnitNode
			spec.Count = 1 + rng.Intn(2)
		} else {
			spec.Unit = UnitCore
			spec.Count = 1 + rng.Intn(8)
		}
		script = append(script, winAction{at: at, kind: 0, job: i, spec: spec})
		if rng.Intn(10) == 0 {
			script = append(script, winAction{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: 1, job: i})
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("eqwin%02d", 1+rng.Intn(nodes))
		down := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		script = append(script, winAction{at: down, kind: 2, node: name})
		script = append(script, winAction{at: down + time.Duration(rng.Int63n(int64(time.Hour))) + time.Minute, kind: 3, node: name})
	}
	return script
}

// runWinScript drives one scheduler through the script, checking its
// views against the ground truth after every action.
func runWinScript(t *testing.T, script []winAction, nodes int, backfill bool) *Scheduler {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "EQHEAD")
	s.Backfill = backfill
	for i := 1; i <= nodes; i++ {
		if _, err := s.AddNode(fmt.Sprintf("eqwin%02d", i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]int, len(script))
	for _, a := range script {
		eng.After(a.at, func() {
			switch a.kind {
			case 0:
				j, err := s.SubmitJob(a.spec)
				if err != nil {
					t.Errorf("submit %s: %v", a.spec.Name, err)
					return
				}
				ids[a.job] = j.ID()
			case 1:
				_ = s.CancelJob(ids[a.job]) // may legitimately race completion
			case 2:
				_ = s.SetNodeOnline(a.node, false)
			case 3:
				_ = s.SetNodeOnline(a.node, true)
			}
			if err := checkAgainstScratch(s); err != nil {
				t.Fatalf("after action %d at %v: %v", a.kind, eng.Now(), err)
			}
		})
	}
	eng.Run()
	return s
}

// TestWinHPCIncrementalMatchesScratchRecompute runs a randomized
// workload of core- and node-unit jobs at every priority, with
// cancellations and node outages, through the scheduler and requires
// its views to match a from-scratch recompute after every action, and
// every job to reach a terminal state.
func TestWinHPCIncrementalMatchesScratchRecompute(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		name := "fcfs"
		if backfill {
			name = "backfill"
		}
		t.Run(name, func(t *testing.T) {
			s := runWinScript(t, winScript(733, 12, 120), 12, backfill)
			if err := checkAgainstScratch(s); err != nil {
				t.Fatal(err)
			}
			for _, j := range s.Jobs() {
				if j.State == JobQueued || j.State == JobRunning {
					t.Fatalf("job %d ended in state %v", j.ID(), j.State)
				}
			}
		})
	}
}
