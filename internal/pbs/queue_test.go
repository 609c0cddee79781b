package pbs

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestDefaultQueueExists(t *testing.T) {
	_, s := newTestServer(t, 1)
	q, err := s.GetQueue("default")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Enabled() || !q.Started() {
		t.Fatalf("default queue = %+v", q)
	}
	if len(s.Queues()) != 1 {
		t.Fatalf("queues = %d", len(s.Queues()))
	}
}

func TestCreateQueueValidation(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.CreateQueue(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.CreateQueue("default"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := s.CreateQueue("batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetQueue("batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetQueue("nope"); err == nil {
		t.Fatal("phantom queue found")
	}
}

func TestQueuesSorted(t *testing.T) {
	_, s := newTestServer(t, 1)
	s.CreateQueue("zed")
	s.CreateQueue("alpha")
	qs := s.Queues()
	if qs[0].Name != "alpha" || qs[1].Name != "default" || qs[2].Name != "zed" {
		t.Fatalf("order = %v %v %v", qs[0].Name, qs[1].Name, qs[2].Name)
	}
}

func TestQsubUnknownQueueRejected(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "ghost", Runtime: time.Minute}); err == nil {
		t.Fatal("unknown queue accepted")
	}
}

func TestDisabledQueueRejectsSubmissions(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.CreateQueue("batch")
	if err := s.SetQueueEnabled("batch", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "batch", Runtime: time.Minute}); err == nil {
		t.Fatal("disabled queue accepted a job")
	}
	s.SetQueueEnabled("batch", true)
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "batch", Runtime: time.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestStoppedQueueHoldsJobsWithoutBlocking(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.CreateQueue("held")
	if err := s.SetQueueStarted("held", false); err != nil {
		t.Fatal(err)
	}
	heldJob, _ := s.Qsub(SubmitRequest{Name: "held", Queue: "held", Nodes: 1, PPN: 4, Runtime: time.Minute})
	freeJob, _ := s.Qsub(SubmitRequest{Name: "free", Nodes: 1, PPN: 4, Runtime: time.Minute})
	eng.RunUntil(30 * time.Second)
	if heldJob.State != StateQueued {
		t.Fatalf("held job state = %v", heldJob.State)
	}
	// The held job must not block the default queue behind it.
	if freeJob.State != StateRunning {
		t.Fatalf("free job state = %v", freeJob.State)
	}
	// Starting the queue releases the job.
	s.SetQueueStarted("held", true)
	eng.Run()
	if heldJob.State != StateComplete {
		t.Fatalf("held job = %v after queue start", heldJob.State)
	}
}

func TestQueueMaxRunning(t *testing.T) {
	eng, s := newTestServer(t, 4)
	q, _ := s.CreateQueue("limited")
	q.MaxRunning = 1
	a, _ := s.Qsub(SubmitRequest{Name: "a", Queue: "limited", Nodes: 1, PPN: 4, Runtime: time.Hour})
	bJob, _ := s.Qsub(SubmitRequest{Name: "b", Queue: "limited", Nodes: 1, PPN: 4, Runtime: time.Hour})
	other, _ := s.Qsub(SubmitRequest{Name: "c", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	if a.State != StateRunning {
		t.Fatalf("a = %v", a.State)
	}
	if bJob.State != StateQueued {
		t.Fatalf("b = %v, queue cap ignored", bJob.State)
	}
	if other.State != StateRunning {
		t.Fatalf("other = %v, capped queue blocked default", other.State)
	}
	eng.RunUntil(90 * time.Minute)
	if bJob.State != StateRunning {
		t.Fatalf("b = %v after a finished", bJob.State)
	}
	eng.Run()
}

// TestInterleavedQueuesKeepTheirCaps alternates jobs of a capped queue
// and the default queue, so every scheduling pass's queue lookups
// switch between the two on every job. The capped queue's exported
// name is rewritten first: lookups go by the name it was created with.
func TestInterleavedQueuesKeepTheirCaps(t *testing.T) {
	eng, s := newTestServer(t, 4)
	q, _ := s.CreateQueue("limited")
	q.MaxRunning = 1
	q.Name = "renamed"
	var limited, other []*Job
	for i := 0; i < 3; i++ {
		a, err := s.Qsub(SubmitRequest{Queue: "limited", Nodes: 1, PPN: 1, Runtime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := s.Qsub(SubmitRequest{Nodes: 1, PPN: 1, Runtime: time.Hour})
		limited, other = append(limited, a), append(other, b)
	}
	eng.RunUntil(time.Minute)
	for i := range limited {
		want := StateQueued
		if i == 0 {
			want = StateRunning
		}
		if limited[i].State != want {
			t.Fatalf("limited job %d = %v, want %v", i, limited[i].State, want)
		}
		if other[i].State != StateRunning {
			t.Fatalf("default job %d = %v, capped queue blocked it", i, other[i].State)
		}
	}
	eng.Run()
	for _, j := range append(limited, other...) {
		if j.State != StateComplete {
			t.Fatalf("job %s = %v after the drain", s.ID(j), j.State)
		}
	}
}

// TestJobFitsItsSizeClass pins the job's size at the 288-byte
// allocation class it fills exactly: one more field would move every
// job up a class.
func TestJobFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got > 288 {
		t.Fatalf("Job is %d bytes, want at most 288", got)
	}
}

func TestSetQueueFlagsUnknown(t *testing.T) {
	_, s := newTestServer(t, 1)
	if err := s.SetQueueEnabled("ghost", true); err == nil {
		t.Fatal("enable on unknown queue succeeded")
	}
	if err := s.SetQueueStarted("ghost", true); err == nil {
		t.Fatal("start on unknown queue succeeded")
	}
}

func TestQstatSummaryShape(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.Qsub(SubmitRequest{Name: "release_1_node", Owner: "sliang@eridani.qgg.hud.ac.uk",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	s.Qsub(SubmitRequest{Name: "dlpoly-run", Owner: "chem@eridani.qgg.hud.ac.uk",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(10 * time.Second)
	out := s.QstatSummary()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two jobs
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Job ID") || !strings.Contains(lines[0], "Queue") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "release_1_node") || !strings.Contains(lines[2], " R ") {
		t.Fatalf("running row = %q", lines[2])
	}
	if !strings.Contains(lines[2], "sliang") || strings.Contains(lines[2], "@") {
		t.Fatalf("user column = %q", lines[2])
	}
	if !strings.Contains(lines[2], "00:00:10") {
		t.Fatalf("time use = %q", lines[2])
	}
	if !strings.Contains(lines[3], " Q ") {
		t.Fatalf("queued row = %q", lines[3])
	}
	// Completed jobs drop out.
	eng.Run()
	out = s.QstatSummary()
	if strings.Contains(out, "release_1_node") {
		t.Fatalf("completed job still listed:\n%s", out)
	}
}
