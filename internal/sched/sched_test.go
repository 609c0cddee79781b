package sched

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/simtime"
)

// TestRestartedEntryIgnoresStaleTimer bounces the node under a long
// rerunnable entry: it loses the node an hour in, is requeued, and
// starts again when the node returns a minute later. The completion
// timer of the first run still fires at its old end; the restarted run
// must ignore it and run its full runtime (cut at the walltime, when
// that is shorter).
func TestRestartedEntryIgnoresStaleTimer(t *testing.T) {
	for _, tc := range []struct {
		name              string
		runtime, walltime time.Duration
		want              time.Duration
	}{
		{"no walltime", 2 * time.Hour, 0, time.Hour + time.Minute + 2*time.Hour},
		{"walltime past runtime", 2 * time.Hour, 3 * time.Hour, time.Hour + time.Minute + 2*time.Hour},
		{"killed at walltime", 3 * time.Hour, 2 * time.Hour, time.Hour + time.Minute + 2*time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := simtime.NewEngine()
			backfill := false
			var starts, ends []time.Duration
			c := New(eng, Face{
				Backfill: &backfill,
				Started:  func(*Entry) { starts = append(starts, eng.Now()) },
				Finished: func(*Entry) { ends = append(ends, eng.Now()) },
			})
			c.AddNode(4, Up)
			e := &Entry{Seq: 1, Shape: PerNode, Count: 1, PPN: 4, Runtime: tc.runtime, Walltime: tc.walltime, Rerun: true}
			c.Submit(e)
			eng.At(time.Hour, func() {
				c.SetNode(0, Down)
				for _, v := range c.Holding(0) {
					if !c.Interrupt(v) {
						t.Error("rerunnable entry was not requeued")
					}
				}
				c.Kick()
			})
			eng.At(time.Hour+time.Minute, func() { c.SetNode(0, Up) })
			eng.Run()
			if len(starts) != 2 || starts[1] != time.Hour+time.Minute {
				t.Fatalf("started at %v, want 0s and 1h1m", starts)
			}
			if len(ends) != 1 || ends[0] != tc.want {
				t.Fatalf("finished at %v, want once at %v", ends, tc.want)
			}
		})
	}
}

// TestEntryStaysSmall pins the entry's size: faces embed it in every
// job, so a field that only a running entry needs belongs in the
// running ledger instead.
func TestEntryStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 56 {
		t.Fatalf("Entry is %d bytes, want at most 56", got)
	}
}

// TestSubmitRejectsEmptyDemand pins the entry contract the pass's
// early stop relies on: an entry that asks for no slots is a face bug.
func TestSubmitRejectsEmptyDemand(t *testing.T) {
	for _, e := range []Entry{{Shape: PerNode, Count: 1}, {Shape: Whole}, {Shape: Anywhere}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit accepted %+v", e)
				}
			}()
			backfill := false
			New(simtime.NewEngine(), Face{Backfill: &backfill}).Submit(&e)
		}()
	}
}
