package pbs

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

// Property suite: resource-accounting invariants that must survive any
// job stream. Each raw byte drives one randomized submission.

// TestQuickNoOversubscription: at every job start, no node may have
// more busy virtual processors than it has cores.
func TestQuickNoOversubscription(t *testing.T) {
	f := func(raw []byte) bool {
		eng := simtime.NewEngine()
		s := NewServer(eng, "prop.example")
		for i := 1; i <= 4; i++ {
			s.AddNode(nodeName(i), 4, true)
		}
		ok := true
		s.OnJobStart = func(*Job) {
			for _, n := range s.Nodes() {
				if n.UsedCPUs() > n.NP {
					ok = false
				}
			}
		}
		for i, b := range raw {
			if i >= 24 {
				break
			}
			s.Qsub(SubmitRequest{
				Name:    "p",
				Nodes:   int(b%3) + 1,
				PPN:     int(b>>2%4) + 1,
				Runtime: time.Duration(b%50+1) * time.Minute,
			})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAllFeasibleJobsEventuallyRun: with all nodes up and no
// walltime kills, every accepted job completes once the engine drains.
func TestQuickAllFeasibleJobsEventuallyRun(t *testing.T) {
	f := func(raw []byte) bool {
		eng := simtime.NewEngine()
		s := NewServer(eng, "prop.example")
		for i := 1; i <= 3; i++ {
			s.AddNode(nodeName(i), 4, true)
		}
		var accepted []*Job
		for i, b := range raw {
			if i >= 16 {
				break
			}
			j, err := s.Qsub(SubmitRequest{
				Name:    "p",
				Nodes:   int(b%4) + 1, // may exceed 3 nodes → rejected
				PPN:     int(b>>3%4) + 1,
				Runtime: time.Duration(b%30+1) * time.Minute,
			})
			if err == nil {
				accepted = append(accepted, j)
			}
		}
		eng.Run()
		for _, j := range accepted {
			if j.State != StateComplete {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSlotsReleasedAfterDrain: after everything completes, every
// node is fully free — no leaked slots.
func TestQuickSlotsReleasedAfterDrain(t *testing.T) {
	f := func(raw []byte) bool {
		eng := simtime.NewEngine()
		s := NewServer(eng, "prop.example")
		for i := 1; i <= 4; i++ {
			s.AddNode(nodeName(i), 4, true)
		}
		for i, b := range raw {
			if i >= 20 {
				break
			}
			s.Qsub(SubmitRequest{
				Name:    "p",
				Nodes:   int(b%4) + 1,
				PPN:     int(b>>4%4) + 1,
				Runtime: time.Duration(b%90+1) * time.Minute,
			})
			// Inject a node bounce mid-stream to exercise requeue paths.
			if b%17 == 0 {
				s.SetNodeAvailable(nodeName(int(b%4)+1), false)
				s.SetNodeAvailable(nodeName(int(b%4)+1), true)
			}
		}
		eng.Run()
		for _, n := range s.Nodes() {
			if n.UsedCPUs() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExecSlotsDistinct: a running job's exec slots never collide
// (same node+CPU twice).
func TestQuickExecSlotsDistinct(t *testing.T) {
	f := func(raw []byte) bool {
		eng := simtime.NewEngine()
		s := NewServer(eng, "prop.example")
		for i := 1; i <= 4; i++ {
			s.AddNode(nodeName(i), 4, true)
		}
		ok := true
		s.OnJobStart = func(j *Job) {
			seen := map[ExecSlot]bool{}
			for _, slot := range s.ExecHost(j) {
				if seen[slot] {
					ok = false
				}
				seen[slot] = true
			}
		}
		for i, b := range raw {
			if i >= 20 {
				break
			}
			s.Qsub(SubmitRequest{Name: "p", Nodes: int(b%2) + 1, PPN: int(b%4) + 1,
				Runtime: time.Duration(b%20+1) * time.Minute})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
