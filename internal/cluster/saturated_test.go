package cluster

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/osid"
	"repro/internal/workload"
)

// TestFCFSNeverSwitchesWhileSaturated pins E20's structural zero on a
// whole cluster: the paper's rule only answers a stuck queue (queued
// work, nothing running), so while every side with a queue also runs a
// job it never switches. A short trace keeps both sides of a small
// hybrid-v2 cluster queued. A sampler beside the controller checks at
// every cycle that the premise held, and that both queues were loaded
// at three quarters of the cycles inside the submission window.
func TestFCFSNeverSwitchesWhileSaturated(t *testing.T) {
	const cycle = 10 * time.Minute
	c := newCluster(t, Config{Mode: HybridV2, Nodes: 16, Cycle: cycle, Policy: controller.FCFS{}})
	const window = 6 * time.Hour
	trace := workload.Poisson(workload.PoissonConfig{Seed: 20, Duration: window,
		JobsPerHour: 40, WindowsFrac: 0.5, RuntimeScale: 0.2, MaxNodes: 4})
	f := scheduleTrace(c, trace)
	samples, saturated := 0, 0
	c.Eng.Every(cycle, func() {
		if c.Eng.Now() <= window {
			samples++
		}
		loaded := 0
		for _, os := range []osid.OS{osid.Linux, osid.Windows} {
			s := c.SideInfo(os)
			if s.QueuedJobs > 0 && s.RunningJobs == 0 {
				t.Fatalf("at %v %s has %d queued and nothing running: the trace does not saturate it",
					c.Eng.Now(), os, s.QueuedJobs)
			}
			if c.Detect(os).Stuck {
				t.Fatalf("at %v %s reports stuck with %d running", c.Eng.Now(), os, s.RunningJobs)
			}
			if s.QueuedJobs > 0 {
				loaded++
			}
		}
		if loaded == 2 && c.Eng.Now() <= window {
			saturated++
		}
	})
	drain(c, 1000*time.Hour, f.Busy)
	if c.Rec.Unfinished() != 0 {
		t.Fatalf("%d jobs unfinished", c.Rec.Unfinished())
	}
	if saturated*4 < samples*3 {
		t.Fatalf("both queues loaded at %d of %d cycles, want at least three quarters", saturated, samples)
	}
	st := c.Mgr.Stats()
	if st.Cycles == 0 || st.Switches != 0 || st.NodesOrdered != 0 {
		t.Fatalf("controller stats %+v, want cycles and no switch", st)
	}
	for _, rec := range c.Mgr.History() {
		if rec.Decision.Act {
			t.Fatalf("fcfs acted at %v: %v", rec.At, rec.Decision)
		}
	}
	t.Logf("%d cycles, both queues loaded at %d of %d samples", st.Cycles, saturated, samples)
}
