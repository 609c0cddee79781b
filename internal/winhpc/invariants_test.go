package winhpc

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

// Property suite mirroring the PBS invariants on the Windows side.

func propScheduler() (*simtime.Engine, *Scheduler) {
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "PROP")
	for i := 1; i <= 4; i++ {
		s.AddNode(nodeName(i), 4, true)
	}
	return eng, s
}

// TestQuickCoresNeverOversubscribed: free cores never go negative and
// used never exceeds capacity, under random core/node jobs with random
// priorities.
func TestQuickCoresNeverOversubscribed(t *testing.T) {
	f := func(raw []byte) bool {
		eng, s := propScheduler()
		ok := true
		s.OnJobStart = func(*Job) {
			for _, n := range s.Nodes() {
				if n.UsedCores() > n.Cores || n.FreeCores() < 0 {
					ok = false
				}
			}
		}
		for i, b := range raw {
			if i >= 24 {
				break
			}
			unit := UnitCore
			count := int(b%8) + 1
			if b%3 == 0 {
				unit = UnitNode
				count = int(b%4) + 1
			}
			s.SubmitJob(JobSpec{
				Name: "p", Unit: unit, Count: count,
				Priority: Priority(int8(b%5) - 2),
				Runtime:  time.Duration(b%40+1) * time.Minute,
			})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoresReleasedAfterDrain: all cores free once the engine
// drains, including through cancellations and node bounces.
func TestQuickCoresReleasedAfterDrain(t *testing.T) {
	f := func(raw []byte) bool {
		eng, s := propScheduler()
		for i, b := range raw {
			if i >= 20 {
				break
			}
			j, err := s.SubmitJob(JobSpec{
				Name: "p", Unit: UnitCore, Count: int(b%8) + 1,
				Runtime: time.Duration(b%60+1) * time.Minute,
			})
			if err == nil && b%11 == 0 {
				s.CancelJob(j.ID())
			}
			if b%13 == 0 {
				name := nodeName(int(b%4) + 1)
				s.SetNodeOnline(name, false)
				s.SetNodeOnline(name, true)
			}
		}
		eng.Run()
		for _, n := range s.Nodes() {
			if n.UsedCores() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTerminalStatesStable: once a job reaches a terminal state
// it never runs again.
func TestQuickTerminalStatesStable(t *testing.T) {
	f := func(raw []byte) bool {
		eng, s := propScheduler()
		terminal := map[int]JobState{}
		ok := true
		s.OnJobEnd = func(j *Job) {
			if prev, seen := terminal[j.ID()]; seen && prev != j.State {
				ok = false
			}
			terminal[j.ID()] = j.State
		}
		s.OnJobStart = func(j *Job) {
			if _, seen := terminal[j.ID()]; seen {
				ok = false // resurrection
			}
		}
		for i, b := range raw {
			if i >= 16 {
				break
			}
			j, err := s.SubmitJob(JobSpec{Name: "p", Unit: UnitNode, Count: int(b%2) + 1,
				Runtime: time.Duration(b%30+1) * time.Minute})
			if err == nil && b%7 == 0 {
				s.CancelJob(j.ID())
			}
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
