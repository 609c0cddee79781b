package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/workload"
)

// A switch that never completes must not hang the drain: it is bounded
// by the horizon, not by an iteration count.
func TestRunUntilDrainedStuckSwitchStopsAtHorizon(t *testing.T) {
	c, err := New(Config{Mode: HybridV2, Nodes: 4, InitialLinux: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge a node mid-switch with no pending event to release it —
	// the permanently-stuck case (e.g. a machine that powers off
	// during reboot and never reports back). It leaves PBS as a real
	// switch does, so the cluster's census and the scheduler's agree.
	n := c.nodes[0]
	c.setState(n, osid.None, true, false)
	if err := c.PBS.SetNodeAvailable(n.HW.Name, false); err != nil {
		t.Fatal(err)
	}

	const horizon = 2 * time.Hour
	done := make(chan struct{})
	go func() {
		drain(c, horizon, c.Busy)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the drain did not terminate with a stuck switch")
	}
	if got := c.Eng.Now(); got != horizon {
		t.Fatalf("clock stopped at %v, want horizon %v", got, horizon)
	}
	if c.SwitchingCount() != 1 {
		t.Fatalf("stuck switch count = %d, want 1", c.SwitchingCount())
	}
}

// A job deleted while it waits ends there: the drain stops once the
// rest of the work is done instead of riding to the horizon, and the
// deleted job is booked as not completed.
func TestRunUntilDrainedQdelQueuedJob(t *testing.T) {
	c, err := New(Config{Mode: Static, Nodes: 2, InitialLinux: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{App: "wide", OS: osid.Linux, Owner: "u", Nodes: 2, PPN: 4, Runtime: time.Hour}
	if _, err := c.Submit(job); err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	id := c.Rec.JobID(h)
	c.Eng.RunUntil(time.Minute)
	if j, err := c.PBS.Job(id); err != nil || j.State != pbs.StateQueued {
		t.Fatalf("second job %v, err %v; want it queued behind the first", j, err)
	}
	if err := c.PBS.Qdel(id); err != nil {
		t.Fatal(err)
	}
	const horizon = 48 * time.Hour
	drain(c, horizon, c.Busy)
	if c.Rec.Unfinished() != 0 {
		t.Fatalf("%d jobs unfinished after the drain", c.Rec.Unfinished())
	}
	if now := c.Eng.Now(); now >= horizon {
		t.Fatalf("drain rode the clock to %v", now)
	}
	if got := c.Summary().JobsCompleted[osid.Linux]; got != 1 {
		t.Fatalf("%d Linux jobs completed, want 1: the deleted job must not count", got)
	}
	for _, r := range c.Rec.Jobs() {
		if r.ID == id && r.Completed {
			t.Fatalf("deleted job %s booked as completed", id)
		}
	}
}

// BootFailureProb must break nodes deterministically: the same seed
// yields the same casualties, and a zero probability never breaks
// anything.
func TestBootFailureInjection(t *testing.T) {
	trace := workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 6, Gap: time.Minute, App: "Backburner",
		OS: osid.Windows, Nodes: 2, PPN: 4, Runtime: 30 * time.Minute, Owner: "render",
	})
	run := func(prob float64) (broken int, summarySwitches int) {
		c, err := New(Config{
			Mode: HybridV2, Nodes: 8, InitialLinux: 8,
			Cycle: 5 * time.Minute, Seed: 11, BootFailureProb: prob,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := runTrace(c, trace, 24*time.Hour)
		return c.BrokenCount(), sum.Switches
	}

	if broken, _ := run(0); broken != 0 {
		t.Fatalf("fault-free run broke %d nodes", broken)
	}
	b1, s1 := run(1)
	if b1 == 0 {
		t.Fatal("probability-1 faults broke no nodes")
	}
	b2, s2 := run(1)
	if b1 != b2 || s1 != s2 {
		t.Fatalf("same seed diverged: broken %d vs %d, switches %d vs %d", b1, b2, s1, s2)
	}
}

// steppedDrain replicates the fixed-step polling loop this package
// used before the event-driven quiescence driver, kept here as the
// wakeup baseline the acceptance benchmark compares against.
func steppedDrain(f *feed, maxHorizon time.Duration) {
	c := f.Cluster
	step := c.cfg.Cycle
	if step <= 0 {
		step = 10 * time.Minute
	}
	for c.Eng.Now() < maxHorizon {
		if !f.Busy() {
			break
		}
		next := c.Eng.Now() + step
		if next > maxHorizon {
			next = maxHorizon
		}
		c.Eng.RunUntil(next)
	}
	c.Quiesce()
	const rebootDrainStep = time.Minute
	for c.SwitchingCount() > 0 && c.Eng.Now() < maxHorizon {
		next := c.Eng.Now() + rebootDrainStep
		if next > maxHorizon {
			next = maxHorizon
		}
		c.Eng.RunUntil(next)
	}
}

// idleTailTrace is a 24h trace whose work is front-loaded: a Windows
// burst at time zero, then nothing until a single straggler at the
// 24h mark — the long idle tail the stepped loop polled through.
func idleTailTrace() workload.Trace {
	burst := workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 3, Gap: time.Minute, App: "Backburner",
		OS: osid.Windows, Nodes: 2, PPN: 4, Runtime: time.Hour, Owner: "render",
	})
	return append(burst, workload.Job{
		At: 24 * time.Hour, App: "Opera", OS: osid.Windows, Owner: "em",
		Nodes: 1, PPN: 4, Runtime: 30 * time.Minute,
	})
}

func idleTailConfig() Config {
	return Config{Mode: HybridV2, InitialLinux: 16, Cycle: 10 * time.Minute, Seed: 3}
}

// Acceptance criterion: on a 24h trace with a long idle tail the
// event-driven driver executes strictly fewer engine callbacks than
// the stepped baseline (which overshoots quiescence to its next step
// boundary, waking the controller once more for nothing) while
// completing the identical work.
func TestDriverFewerWakeupsThanSteppedBaseline(t *testing.T) {
	trace := idleTailTrace()
	const horizon = 72 * time.Hour

	base, err := New(idleTailConfig())
	if err != nil {
		t.Fatal(err)
	}
	steppedDrain(scheduleTrace(base, trace), horizon)
	baseSum := base.Summary()

	drv, err := New(idleTailConfig())
	if err != nil {
		t.Fatal(err)
	}
	drvSum := runTrace(drv, trace, horizon)

	if got, want := drvSum.JobsCompleted[osid.Windows], baseSum.JobsCompleted[osid.Windows]; got != want {
		t.Fatalf("driver completed %d windows jobs, baseline %d", got, want)
	}
	if drvSum.JobsCompleted[osid.Windows] != len(trace) {
		t.Fatalf("completed %d of %d", drvSum.JobsCompleted[osid.Windows], len(trace))
	}
	if drv.Eng.EventsRun() >= base.Eng.EventsRun() {
		t.Fatalf("driver wakeups %d not below stepped baseline %d",
			drv.Eng.EventsRun(), base.Eng.EventsRun())
	}
	// The driver stops at the exact quiescence instant; the baseline
	// overshoots to a step boundary.
	if drv.Eng.Now() > base.Eng.Now() {
		t.Fatalf("driver stopped at %v, after baseline %v", drv.Eng.Now(), base.Eng.Now())
	}
}

// BenchmarkDrainWakeups reports the wakeup counts of both drain
// strategies on the idle-tailed trace; BENCH_sim.json tracks the
// driver numbers per experiment.
func BenchmarkDrainWakeups(b *testing.B) {
	run := func(b *testing.B, drain func(*feed, time.Duration)) {
		var events uint64
		for i := 0; i < b.N; i++ {
			c, err := New(idleTailConfig())
			if err != nil {
				b.Fatal(err)
			}
			drain(scheduleTrace(c, idleTailTrace()), 72*time.Hour)
			events = c.Eng.EventsRun()
		}
		b.ReportMetric(float64(events), "events-run")
	}
	b.Run("stepped-baseline", func(b *testing.B) {
		run(b, steppedDrain)
	})
	b.Run("event-driven", func(b *testing.B) {
		run(b, func(f *feed, h time.Duration) { drain(f.Cluster, h, f.Busy) })
	})
}
