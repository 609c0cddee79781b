package winhpc

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// This file pins the EASY backfill guarantees on the Windows HPC
// side, for both resource units: a blocked wide head must start no
// later than its reservation under a continuous narrow stream. The
// greedy replica that demonstrates the starvation lives with the
// scheduling core, in internal/sched.

// starvationWorkload builds the canonical scenario on a 2-node×4-core
// scheduler: a node-exclusive blocker pins node 1 for two hours, a
// 2-node job queues behind it, and a 1-core job arrives every ten
// minutes for six hours. The wide job's reservation is the blocker's
// projected end: t=2h.
func starvationWorkload(eng *simtime.Engine, s *Scheduler) (wide *Job, narrows *[]*Job) {
	s.SubmitJob(JobSpec{Name: "blocker", Unit: UnitNode, Count: 1, Runtime: 2 * time.Hour})
	eng.RunUntil(time.Second) // let the blocker start
	wide, _ = s.SubmitJob(JobSpec{Name: "wide", Unit: UnitNode, Count: 2, Runtime: time.Hour})
	narrows = &[]*Job{}
	for i := 0; i < 36; i++ {
		eng.At(90*time.Second+time.Duration(i)*10*time.Minute, func() {
			n, _ := s.SubmitJob(JobSpec{Name: "narrow", Unit: UnitCore, Count: 1,
				Runtime: 30 * time.Minute})
			*narrows = append(*narrows, n)
		})
	}
	return wide, narrows
}

const wideReservation = 2 * time.Hour // the blocker's projected end

func TestEASYBackfillBoundsNodeJobWait(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.Backfill = true
	wide, narrows := starvationWorkload(eng, s)
	eng.RunUntil(6 * time.Hour)

	if wide.State != JobRunning && wide.State != JobFinished {
		t.Fatalf("wide job state = %v, want started", wide.State)
	}
	if wide.StartTime > wideReservation {
		t.Fatalf("wide job started at %v, after its %v reservation", wide.StartTime, wideReservation)
	}
	jumped := 0
	for _, n := range *narrows {
		if n.StartTime > 0 && n.StartTime < wide.StartTime {
			jumped++
		}
	}
	if jumped < 5 {
		t.Fatalf("only %d narrow jobs backfilled ahead of the wide head", jumped)
	}
	eng.Run()
}

// A UnitCore pivot gets the same protection: a core job too big for
// the current slack reserves the first projected instant the cores
// exist, and narrow jobs may not push that instant back.
func TestEASYBackfillBoundsCoreJobWait(t *testing.T) {
	eng, s := newTestScheduler(t, 2)
	s.Backfill = true
	s.SubmitJob(JobSpec{Name: "blocker", Unit: UnitCore, Count: 6, Runtime: 2 * time.Hour})
	eng.RunUntil(time.Second)
	// 8 cores > the 2 free: blocked until the blocker releases at 2h.
	pivot, _ := s.SubmitJob(JobSpec{Name: "pivot", Unit: UnitCore, Count: 8, Runtime: time.Hour})
	var early, late *Job
	eng.At(30*time.Minute, func() {
		// Ends at 60m, inside the 120m shadow: free to backfill.
		early, _ = s.SubmitJob(JobSpec{Name: "early", Unit: UnitCore, Count: 1,
			Runtime: 30 * time.Minute})
	})
	eng.At(100*time.Minute, func() {
		// 100m + 30m = 130m > the 120m shadow, and the pivot needs
		// every core at its reservation: this candidate would delay it.
		late, _ = s.SubmitJob(JobSpec{Name: "late", Unit: UnitCore, Count: 1,
			Runtime: 30 * time.Minute})
	})
	eng.RunUntil(119 * time.Minute)
	if early.StartTime != 30*time.Minute {
		t.Fatalf("early narrow job started at %v, want backfilled immediately", early.StartTime)
	}
	if late.State != JobQueued {
		t.Fatalf("late narrow job state = %v, want queued behind the reservation", late.State)
	}
	eng.RunUntil(3 * time.Hour)
	if pivot.StartTime != wideReservation {
		t.Fatalf("pivot started at %v, want exactly its %v reservation", pivot.StartTime, wideReservation)
	}
	eng.Run()
}
