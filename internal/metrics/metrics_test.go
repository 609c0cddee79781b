package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/osid"
)

// fakeClock drives the recorder deterministically.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestUtilisationSingleJob(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 8) // 2 nodes × 4 cores
	j1 := r.JobSubmitted(1, osid.Linux, "GULP", 4)
	r.JobStarted(j1)
	c.t = time.Hour
	r.JobEnded(j1, true)
	c.t = 2 * time.Hour
	s := r.Summarise(2)
	// 4 cores busy for 1h of a 2h × 8-core window = 25%.
	if s.Utilisation < 0.249 || s.Utilisation > 0.251 {
		t.Fatalf("utilisation = %v", s.Utilisation)
	}
	if s.UtilisationOS[osid.Linux] != s.Utilisation || s.UtilisationOS[osid.Windows] != 0 {
		t.Fatalf("per-OS = %v", s.UtilisationOS)
	}
}

func TestWaits(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	a := r.JobSubmitted(1, osid.Windows, "Opera", 4)
	c.t = 10 * time.Minute
	r.JobStarted(a)
	c.t = 30 * time.Minute
	r.JobEnded(a, true)
	b := r.JobSubmitted(2, osid.Windows, "Opera", 4)
	c.t = 40 * time.Minute
	r.JobStarted(b)
	c.t = time.Hour
	r.JobEnded(b, true)
	s := r.Summarise(1)
	if s.MeanWait[osid.Windows] != 10*time.Minute {
		t.Fatalf("mean wait = %v", s.MeanWait[osid.Windows])
	}
	if s.MaxWait[osid.Windows] != 10*time.Minute {
		t.Fatalf("max wait = %v", s.MaxWait[osid.Windows])
	}
	if s.JobsSubmitted[osid.Windows] != 2 || s.JobsCompleted[osid.Windows] != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if s.Makespan != time.Hour {
		t.Fatalf("makespan = %v", s.Makespan)
	}
}

// TestRequeueKeepsFirstStartWait pins the requeue semantics: a
// rerunnable job interrupted by node loss and restarted keeps its
// first start (the wait measures submission to first service), counts
// its restarts, and only integrates busy cores while actually
// running.
func TestRequeueKeepsFirstStartWait(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 8)
	j1 := r.JobSubmitted(1, osid.Linux, "LAMMPS", 4)
	c.t = 10 * time.Minute
	r.JobStarted(j1)
	c.t = 40 * time.Minute
	r.JobInterrupted(j1) // node lost; back to the queue
	c.t = time.Hour
	r.JobStarted(j1) // second attempt
	c.t = 2 * time.Hour
	r.JobEnded(j1, true)
	s := r.Summarise(2)

	// Wait is submission → *first* start, not the restart.
	if want := 10 * time.Minute; s.MeanWait[osid.Linux] != want {
		t.Fatalf("wait = %v, want %v (first-start semantics)", s.MeanWait[osid.Linux], want)
	}
	// Busy-core integration covers only the two running windows:
	// 30m + 60m = 90m of 4 cores over a 2h × 8-core window.
	want := (90 * time.Minute).Seconds() * 4 / ((2 * time.Hour).Seconds() * 8)
	if diff := s.Utilisation - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("utilisation = %v, want %v (no busy time while requeued)", s.Utilisation, want)
	}
	jobs := r.Jobs()
	if len(jobs) != 1 || jobs[0].Restarts != 1 {
		t.Fatalf("jobs = %+v, want one record with one restart", jobs)
	}
	if jobs[0].Started != 10*time.Minute || jobs[0].Ended != 2*time.Hour {
		t.Fatalf("record spans %v..%v, want 10m..2h", jobs[0].Started, jobs[0].Ended)
	}
	if got := jobs[0].BusyTime(); got != 90*time.Minute {
		t.Fatalf("busy time = %v, want 90m (running windows only)", got)
	}
	// Per-app CPU-hours follow actual service, not Ended-Started: the
	// 20-minute requeued gap must not count as compute.
	apps := r.AppStats()
	if len(apps) != 1 {
		t.Fatalf("app stats = %+v", apps)
	}
	if wantCPUH := 4 * 1.5; apps[0].CPUHours != wantCPUH {
		t.Fatalf("CPU-hours = %v, want %v", apps[0].CPUHours, wantCPUH)
	}
}

// A job interrupted and never restarted must stop integrating busy
// cores at the interrupt, and ending it afterwards must not
// double-release.
func TestInterruptWithoutRestartReleasesOnce(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	j1 := r.JobSubmitted(1, osid.Windows, "Opera", 4)
	r.JobStarted(j1)
	c.t = time.Hour
	r.JobInterrupted(j1)
	c.t = 2 * time.Hour
	r.JobEnded(j1, false)
	c.t = 4 * time.Hour
	s := r.Summarise(1)
	// 4 cores × 1h of a 4h × 4-core window = 25%.
	want := 0.25
	if diff := s.Utilisation - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("utilisation = %v, want %v", s.Utilisation, want)
	}
	if s.JobsCompleted[osid.Windows] != 0 {
		t.Fatalf("failed job counted as completed: %+v", s.JobsCompleted)
	}
}

func TestSwitchRecords(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	// The cluster hands over its switching count on every change and
	// closes each switch with the side, target and start it kept.
	r.SetSwitching(1)
	c.t = 4 * time.Minute
	r.SetSwitching(0)
	r.SwitchEnded(SwitchRecord{Node: "n1", From: osid.Linux, To: osid.Windows, OK: true})
	r.SetSwitching(1)
	c.t = 6 * time.Minute
	r.SetSwitching(0)
	r.SwitchEnded(SwitchRecord{Node: "n2", From: osid.Windows, To: osid.Linux, Started: 4 * time.Minute})
	c.t = 10 * time.Minute

	s := r.Summarise(2)
	if s.Switches != 2 || s.SwitchesOK != 1 {
		t.Fatalf("switches = %d ok = %d", s.Switches, s.SwitchesOK)
	}
	if s.MeanSwitch != 3*time.Minute {
		t.Fatalf("mean switch = %v", s.MeanSwitch)
	}
	if s.MaxSwitch != 4*time.Minute {
		t.Fatalf("max switch = %v", s.MaxSwitch)
	}
	// Switch overhead: n1 switching 0–4m, n2 4–6m → 6 node-minutes of
	// 20 node-minutes total = 30%.
	if s.SwitchOverhead < 0.299 || s.SwitchOverhead > 0.301 {
		t.Fatalf("overhead = %v", s.SwitchOverhead)
	}
	recs := r.Switches()
	if len(recs) != 2 || recs[0].Node != "n1" || recs[0].Duration() != 4*time.Minute ||
		recs[1].Finished != 6*time.Minute || recs[1].OK {
		t.Fatalf("records = %+v", recs)
	}
}

// TestSecondJobEndIgnored: a job ends once. A second JobEnded on the
// same handle, or a start after the end, changes neither the job's row
// nor the unfinished and completed counts.
func TestSecondJobEndIgnored(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	h := r.JobSubmitted(1, osid.Linux, "a", 2)
	r.JobSubmitted(2, osid.Linux, "b", 2)
	r.JobStarted(h)
	c.t = time.Hour
	r.JobEnded(h, true)
	row := r.Jobs()[0]
	if row.Ended != time.Hour || !row.Completed || r.Unfinished() != 1 || r.Completed() != 1 {
		t.Fatalf("after the first end: row %+v, unfinished %d, completed %d; want ended at 1h, completed, 1, 1",
			row, r.Unfinished(), r.Completed())
	}
	c.t = 2 * time.Hour
	r.JobEnded(h, false)
	r.JobStarted(h)
	if got := r.Jobs()[0]; got != row {
		t.Fatalf("row %+v after a second end, want %+v", got, row)
	}
	if r.Submitted() != 2 || r.Unfinished() != 1 || r.Completed() != 1 {
		t.Fatalf("submitted %d, unfinished %d, completed %d; want 2, 1, 1",
			r.Submitted(), r.Unfinished(), r.Completed())
	}
}

// A city run holds a million job rows: the lifecycle state must stay
// folded into one byte and the application an interned index, so a
// row stays at 72 bytes.
func TestLifecycleRowSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("row size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Lifecycle{}); got != 72 {
		t.Fatalf("Lifecycle is %d bytes, want 72", got)
	}
}

// TestDuplicateSubmissionIgnored: the job number a job is submitted
// under only names it, it is never a key, so a second submission under
// the same number is not merged into the first: it gets its own handle
// and record, and lifecycle events for one leave the other alone.
func TestDuplicateSubmissionIgnored(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	h1 := r.JobSubmitted(7, osid.Linux, "a", 2)
	h2 := r.JobSubmitted(7, osid.Linux, "a", 2)
	if h1 == h2 {
		t.Fatalf("both submissions got handle %d", h1)
	}
	r.JobStarted(h2)
	c.t = time.Hour
	r.JobEnded(h2, true)
	jobs := r.Jobs()
	if len(jobs) != 2 || jobs[0].Completed || !jobs[1].Completed {
		t.Fatalf("jobs = %+v, want two records with only the second completed", jobs)
	}
	if r.JobID(h1) != "7" || r.JobID(h2) != "7" {
		t.Fatalf("IDs %q, %q, want both 7", r.JobID(h1), r.JobID(h2))
	}
}

// TestUnknownJobEventsIgnored: lifecycle events for a handle the
// recorder never returned change nothing.
func TestUnknownJobEventsIgnored(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	h := r.JobSubmitted(7, osid.Linux, "a", 2)
	for _, bad := range []int{-1, h + 1, 1 << 30} {
		r.JobStarted(bad)
		r.JobInterrupted(bad)
		r.JobEnded(bad, true)
		if id := r.JobID(bad); id != "" {
			t.Fatalf("JobID(%d) = %q", bad, id)
		}
	}
	c.t = time.Hour
	s := r.Summarise(1)
	if s.Utilisation != 0 || s.JobsCompleted[osid.Linux] != 0 || s.JobsSubmitted[osid.Linux] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if jobs := r.Jobs(); len(jobs) != 1 || jobs[0].Started != 0 || jobs[0].Ended != 0 {
		t.Fatalf("jobs = %+v", jobs)
	}
}

func TestWaitPercentile(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 100)
	for i, wait := range []time.Duration{0, time.Minute, 2 * time.Minute, 3 * time.Minute, 100 * time.Minute} {
		h := r.JobSubmitted(i+1, osid.Linux, "x", 1)
		c.t += wait
		r.JobStarted(h)
		r.JobEnded(h, true)
		c.t = 0 // waits measured per-job; reset clock trick
		// NOTE: resetting the fake clock would panic advance(); instead
		// keep time monotonic below.
		c.t = time.Duration(i+1) * 200 * time.Minute
	}
	if got := r.WaitPercentile(osid.Linux, 0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	p100 := r.WaitPercentile(osid.Linux, 100)
	if p100 < 100*time.Minute {
		t.Fatalf("p100 = %v", p100)
	}
	if r.WaitPercentile(osid.Windows, 50) != 0 {
		t.Fatal("empty side percentile should be 0")
	}
}

func TestSummariseEmpty(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 0)
	s := r.Summarise(0)
	if s.Utilisation != 0 || s.Switches != 0 {
		t.Fatalf("s = %+v", s)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	c := &fakeClock{t: time.Hour}
	r := NewRecorder(c.now, 4)
	r.JobSubmitted(7, osid.Linux, "a", 1)
	c.t = 0
	defer func() {
		if recover() == nil {
			t.Fatal("backwards clock not detected")
		}
	}()
	r.JobSubmitted(8, osid.Linux, "a", 1)
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"mode", "util"}, [][]string{
		{"hybrid-v2", "81.2%"},
		{"static", "55.0%"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "mode") || !strings.Contains(lines[0], "util") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "hybrid-v2") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.8125) != "81.2%" {
		t.Fatalf("Pct = %q", Pct(0.8125))
	}
	if Dur(90*time.Second+300*time.Millisecond) != "1m30s" {
		t.Fatalf("Dur = %q", Dur(90*time.Second+300*time.Millisecond))
	}
}

func TestCancelledInQueueNotCompleted(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	q := r.JobSubmitted(1, osid.Linux, "x", 2)
	c.t = time.Minute
	r.JobEnded(q, false) // cancelled before start
	s := r.Summarise(1)
	if s.JobsCompleted[osid.Linux] != 0 || s.JobsSubmitted[osid.Linux] != 1 {
		t.Fatalf("s = %+v", s)
	}
}

func TestAppStats(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 64)
	// Two DL_POLY runs with waits of 0 and 10m, one Opera run.
	a := r.JobSubmitted(1, osid.Linux, "DL_POLY", 16)
	r.JobStarted(a)
	c.t = time.Hour
	r.JobEnded(a, true)

	b := r.JobSubmitted(2, osid.Linux, "DL_POLY", 16)
	c.t = time.Hour + 10*time.Minute
	r.JobStarted(b)
	c.t = 2 * time.Hour
	r.JobEnded(b, true)

	cj := r.JobSubmitted(3, osid.Windows, "Opera", 4)
	r.JobStarted(cj)
	c.t = 3 * time.Hour
	r.JobEnded(cj, true)

	// An incomplete job must not show up.
	r.JobSubmitted(4, osid.Linux, "DL_POLY", 16)

	stats := r.AppStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	dl := stats[0]
	if dl.App != "DL_POLY" || dl.Completed != 2 {
		t.Fatalf("dl = %+v", dl)
	}
	if dl.MeanWait != 5*time.Minute {
		t.Fatalf("dl mean wait = %v", dl.MeanWait)
	}
	if dl.LongestWait != 10*time.Minute || dl.ShortestWait != 0 {
		t.Fatalf("dl wait range = %v..%v", dl.ShortestWait, dl.LongestWait)
	}
	// a ran 1h on 16 cpus, b ran 50m on 16 cpus.
	wantCPUh := 16.0 + 16.0*50.0/60.0
	if dl.CPUHours < wantCPUh-0.01 || dl.CPUHours > wantCPUh+0.01 {
		t.Fatalf("dl cpu hours = %v, want %v", dl.CPUHours, wantCPUh)
	}
	op := stats[1]
	if op.App != "Opera" || op.OS != osid.Windows || op.Completed != 1 {
		t.Fatalf("opera = %+v", op)
	}
}

func TestAppStatsEmpty(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	if stats := r.AppStats(); len(stats) != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAggregateCombinesMemberSummaries(t *testing.T) {
	a := Summary{
		Elapsed: 10 * time.Hour, TotalCores: 32, TotalNodes: 8, Utilisation: 0.5, SwitchOverhead: 0.5,
		UtilisationOS: map[osid.OS]float64{osid.Linux: 0.5},
		MeanWait:      map[osid.OS]time.Duration{osid.Linux: 10 * time.Minute},
		MaxWait:       map[osid.OS]time.Duration{osid.Linux: 30 * time.Minute},
		JobsSubmitted: map[osid.OS]int{osid.Linux: 10},
		JobsCompleted: map[osid.OS]int{osid.Linux: 10},
		Switches:      4, SwitchesOK: 4, MeanSwitch: 2 * time.Minute,
		MaxSwitch: 3 * time.Minute, Makespan: 9 * time.Hour, SubmitFailures: 1,
	}
	b := Summary{
		Elapsed: 10 * time.Hour, TotalCores: 32, TotalNodes: 24, Utilisation: 0.25,
		UtilisationOS: map[osid.OS]float64{osid.Linux: 0.25},
		MeanWait:      map[osid.OS]time.Duration{osid.Linux: 20 * time.Minute},
		MaxWait:       map[osid.OS]time.Duration{osid.Linux: 50 * time.Minute},
		JobsSubmitted: map[osid.OS]int{osid.Linux: 5},
		JobsCompleted: map[osid.OS]int{osid.Linux: 5},
		Switches:      2, SwitchesOK: 1, MeanSwitch: 5 * time.Minute,
		MaxSwitch: 6 * time.Minute, Makespan: 8 * time.Hour,
	}
	s := Aggregate([]Summary{a, b})
	if s.TotalCores != 64 {
		t.Fatalf("cores = %d", s.TotalCores)
	}
	// Core-weighted: (0.5×32 + 0.25×32)/64 = 0.375.
	if s.Utilisation != 0.375 {
		t.Fatalf("utilisation = %v", s.Utilisation)
	}
	// Completion-weighted wait: (10m×10 + 20m×5)/15.
	if want := (10*time.Minute*10 + 20*time.Minute*5) / 15; s.MeanWait[osid.Linux] != want {
		t.Fatalf("mean wait = %v, want %v", s.MeanWait[osid.Linux], want)
	}
	if s.MaxWait[osid.Linux] != 50*time.Minute || s.MaxSwitch != 6*time.Minute {
		t.Fatalf("maxima = %v / %v", s.MaxWait[osid.Linux], s.MaxSwitch)
	}
	if s.Switches != 6 || s.SwitchesOK != 5 {
		t.Fatalf("switches = %d/%d", s.Switches, s.SwitchesOK)
	}
	// Switch-count weighted: (2m×4 + 5m×2)/6 = 3m.
	if s.MeanSwitch != 3*time.Minute {
		t.Fatalf("mean switch = %v", s.MeanSwitch)
	}
	if s.JobsCompleted[osid.Linux] != 15 || s.SubmitFailures != 1 {
		t.Fatalf("jobs = %v, submit failures = %d", s.JobsCompleted, s.SubmitFailures)
	}
	if s.Makespan != 9*time.Hour || s.Elapsed != 10*time.Hour {
		t.Fatalf("makespan %v elapsed %v", s.Makespan, s.Elapsed)
	}
	// SwitchOverhead is a per-node fraction: node-weighted, not
	// core-weighted. (0.5×8 + 0×24)/32 = 0.125.
	if s.TotalNodes != 32 || s.SwitchOverhead != 0.125 {
		t.Fatalf("nodes = %d, overhead = %v", s.TotalNodes, s.SwitchOverhead)
	}
}

func TestSubmitFailedCountsIntoSummary(t *testing.T) {
	now := time.Duration(0)
	r := NewRecorder(func() time.Duration { return now }, 4)
	r.SubmitFailed()
	r.SubmitFailed()
	now = time.Hour
	if got := r.Summarise(1).SubmitFailures; got != 2 {
		t.Fatalf("SubmitFailures = %d", got)
	}
}

// TestJobIDsRenderedOnDemand: the recorder keeps job numbers and
// renders IDs through JobIDs only when JobID or Jobs asks.
func TestJobIDsRenderedOnDemand(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 4)
	calls := 0
	r.JobIDs = func(os osid.OS, num int) string {
		calls++
		if os == osid.Windows {
			return fmt.Sprintf("W%d", num)
		}
		return fmt.Sprintf("%d.eridani", num)
	}
	l := r.JobSubmitted(1185, osid.Linux, "GULP", 4)
	w := r.JobSubmitted(3, osid.Windows, "Opera", 4)
	r.JobStarted(l)
	r.JobEnded(l, true)
	if calls != 0 {
		t.Fatalf("JobIDs called %d times by the lifecycle calls", calls)
	}
	if r.JobID(l) != "1185.eridani" || r.JobID(w) != "W3" {
		t.Fatalf("IDs %q, %q", r.JobID(l), r.JobID(w))
	}
	jobs := r.Jobs()
	if jobs[0].ID != "1185.eridani" || jobs[0].Num != 1185 || jobs[1].ID != "W3" || !jobs[0].Completed {
		t.Fatalf("jobs = %+v", jobs)
	}
}

// The aggregate of one summary is that summary, bit for bit and map
// for map, whatever shape it has: reweighting 0.1 over 3 cores, say,
// gives 0.10000000000000002 back.
func TestAggregateOfOneIsIdentity(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, 12)
	h := r.JobSubmitted(1, osid.Windows, "Opera", 4)
	c.t = 7 * time.Minute
	r.JobStarted(h)
	c.t = time.Hour
	r.JobEnded(h, true)
	r.SubmitFailed()
	parts := []Summary{
		{},
		r.Summarise(3),
		{
			Elapsed: 10 * time.Hour, TotalCores: 3, TotalNodes: 3, Utilisation: 0.1, SwitchOverhead: 0.1,
			UtilisationOS: map[osid.OS]float64{osid.Linux: 0.1},
			MeanWait:      map[osid.OS]time.Duration{osid.Windows: 7 * time.Minute},
			MaxWait:       map[osid.OS]time.Duration{},
			JobsSubmitted: map[osid.OS]int{osid.Linux: 3},
			JobsCompleted: map[osid.OS]int{osid.Linux: 3},
			Switches:      3, SwitchesOK: 2, MeanSwitch: 7 * time.Second, MaxSwitch: 9 * time.Second,
			Makespan: 9 * time.Hour, SubmitFailures: 2,
		},
	}
	for i, s := range parts {
		if got := Aggregate([]Summary{s}); !reflect.DeepEqual(got, s) {
			t.Errorf("summary %d: Aggregate = %+v\nwant %+v", i, got, s)
		}
	}
}
