package winhpc

import (
	"strings"
	"testing"
	"time"
)

func TestJobList(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.SubmitJob(JobSpec{Name: "render-frames", Owner: "HPC\\render", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	s.SubmitJob(JobSpec{Name: "matlab-sweep", Owner: "HPC\\dhaupt", Unit: UnitCore, Count: 3,
		Runtime: time.Hour, Priority: PriorityAboveNormal})
	eng.RunUntil(time.Second)
	out := s.JobList()
	for _, want := range []string{"Id", "render-frames", "Running", "2 nodes", "matlab-sweep", "Queued", "AboveNormal", "3 cores"} {
		if !strings.Contains(out, want) {
			t.Errorf("job list missing %q:\n%s", want, out)
		}
	}
	// Finished jobs drop off the active list.
	eng.Run()
	if out := s.JobList(); strings.Contains(out, "render-frames") {
		t.Fatalf("finished job still listed:\n%s", out)
	}
}

func TestNodeList(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.SetNodeOnline(nodeName(2), false)
	s.SubmitJob(JobSpec{Name: "j", Unit: UnitCore, Count: 2, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	out := s.NodeList()
	for _, want := range []string{"NodeName", "ENODE01", "Online", "ENODE02", "Unreachable", "Default ComputeNode Template"} {
		if !strings.Contains(out, want) {
			t.Errorf("node list missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], " 2 ") {
		t.Errorf("in-use cores not shown: %q", lines[1])
	}
}

func TestFinishedJobReport(t *testing.T) {
	eng, s := newTestScheduler(t, 1)
	s.SubmitJob(JobSpec{Name: "done", Unit: UnitNode, Count: 1, Runtime: 30 * time.Minute})
	j2, _ := s.SubmitJob(JobSpec{Name: "killed", Unit: UnitNode, Count: 1, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	s.CancelJob(j2.ID())
	eng.Run()
	out := s.FinishedJobReport()
	for _, want := range []string{"done", "Finished", "30m0s", "killed", "Canceled", "ENODE01"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
