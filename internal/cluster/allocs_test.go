package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
	"repro/internal/workload"
)

// TestStuckCycleAllocations: a control cycle in which Windows is stuck
// but Linux has no node to donate allocates the stuck job's ID twice
// and nothing else — once when the Windows detector renders it, once
// when the Linux head parses it off the wire. The Linux head decides
// from the wire report, so it runs no Windows detector of its own.
func TestStuckCycleAllocations(t *testing.T) {
	const cycle = 10 * time.Minute
	c := newCluster(t, Config{Mode: HybridV2, Nodes: 8, InitialLinux: 4, Cycle: cycle})
	long := 10000 * time.Hour
	for i := 0; i < 4; i++ { // every Linux node busy: nothing to donate
		if _, err := c.Submit(linJob(0, 1, long)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(workload.Job{App: "ANSYS FLUENT", OS: osid.Windows, Owner: "cfd", Nodes: 6, PPN: 4, Runtime: long}); err != nil {
		t.Fatal(err) // wider than the 4-node Windows side: stuck
	}
	c.Eng.RunUntil(10*cycle + time.Second) // warm-up
	if rep := c.Detect(osid.Windows); !rep.Stuck {
		t.Fatalf("Windows report %+v, want stuck", rep)
	}
	before := c.Mgr.Stats().Cycles
	allocs := testing.AllocsPerRun(1000, func() { c.Eng.RunUntil(c.Eng.Now() + cycle) })
	st := c.Mgr.Stats()
	if ran := st.Cycles - before; ran != 1001 || st.Switches != 0 {
		t.Fatalf("%d cycles ran, stats %+v: want 1001 cycles and no switch", ran, st)
	}
	if allocs != 2 {
		t.Fatalf("%v allocations per stuck cycle, want 2", allocs)
	}
}
