package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
)

// Unit tests for the Gateway view the controller decides from.

func TestSideInfoCountsNodesAndIdle(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 10})
	lin := c.SideInfo(osid.Linux)
	win := c.SideInfo(osid.Windows)
	if lin.TotalNodes != 10 || win.TotalNodes != 6 {
		t.Fatalf("totals = %d/%d", lin.TotalNodes, win.TotalNodes)
	}
	if lin.IdleNodes != 10 || win.IdleNodes != 6 {
		t.Fatalf("idle = %d/%d", lin.IdleNodes, win.IdleNodes)
	}
	if lin.CoresPerNode != 4 {
		t.Fatalf("cores per node = %d", lin.CoresPerNode)
	}
}

func TestSideInfoBusyNodesNotIdle(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	if _, err := c.Submit(linJob(0, 3, time.Hour)); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Minute)
	lin := c.SideInfo(osid.Linux)
	if lin.IdleNodes != 5 {
		t.Fatalf("idle = %d, want 5 (3 busy)", lin.IdleNodes)
	}
	if lin.RunningJobs != 1 {
		t.Fatalf("running = %d", lin.RunningJobs)
	}
}

func TestSideInfoQueuedDemand(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16})
	// Two Windows jobs queue against a zero-node Windows side.
	if _, err := c.Submit(winJob(0, 2, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(winJob(0, 1, time.Hour)); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Minute)
	win := c.SideInfo(osid.Windows)
	if win.QueuedJobs != 2 {
		t.Fatalf("queued = %d", win.QueuedJobs)
	}
	if win.QueuedCPUs != 12 {
		t.Fatalf("queued cpus = %d, want 12", win.QueuedCPUs)
	}
	if rep := c.Detect(osid.Windows); !rep.Stuck || rep.NeededCPUs != 8 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSideInfoPendingAwayTracksOrders(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16})
	if n := c.OrderSwitch(osid.Linux, osid.Windows, 3); n != 3 {
		t.Fatalf("ordered %d", n)
	}
	lin := c.SideInfo(osid.Linux)
	if lin.PendingAway != 3 {
		t.Fatalf("pending = %d", lin.PendingAway)
	}
	// Orders drain as switch jobs complete and reboots finish.
	c.Eng.RunFor(time.Hour)
	lin = c.SideInfo(osid.Linux)
	if lin.PendingAway != 0 {
		t.Fatalf("pending after drain = %d", lin.PendingAway)
	}
	if c.NodesOn(osid.Windows) != 3 {
		t.Fatalf("windows nodes = %d", c.NodesOn(osid.Windows))
	}
}

func TestSideInfoSwitchingNodesBelongToNeitherSide(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16})
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	// Mid-switch: the node counts on neither side.
	c.Eng.RunFor(time.Second)
	lin := c.SideInfo(osid.Linux)
	win := c.SideInfo(osid.Windows)
	if lin.TotalNodes+win.TotalNodes != 15 {
		t.Fatalf("totals = %d+%d, want 15 while one switches", lin.TotalNodes, win.TotalNodes)
	}
	if c.SwitchingCount() != 1 {
		t.Fatalf("switching = %d", c.SwitchingCount())
	}
}

func TestOrderSwitchValidation(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	if n := c.OrderSwitch(osid.Linux, osid.Linux, 1); n != 0 {
		t.Fatal("same-OS order accepted")
	}
	if n := c.OrderSwitch(osid.None, osid.Linux, 1); n != 0 {
		t.Fatal("invalid donor accepted")
	}
	if n := c.OrderSwitch(osid.Linux, osid.Windows, 0); n != 0 {
		t.Fatal("zero count accepted")
	}
	if n := c.OrderSwitch(osid.Linux, osid.Windows, -2); n != 0 {
		t.Fatal("negative count accepted")
	}
}

func TestSideInfoInvalidOS(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2})
	s := c.SideInfo(osid.None)
	if s.TotalNodes != 0 {
		t.Fatalf("SideInfo(None) = %+v", s)
	}
	if rep := c.Detect(osid.None); rep.Stuck {
		t.Fatalf("Detect(None) = %+v", rep)
	}
}

func TestSideInfoArrivedCPUsCumulative(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	if _, err := c.Submit(linJob(0, 2, 30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(winJob(0, 1, 30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(2 * time.Hour) // both jobs long gone
	lin, win := c.SideInfo(osid.Linux), c.SideInfo(osid.Windows)
	// The counter is cumulative demand ever submitted — it must not
	// fall when jobs complete, or the predictive policy's differenced
	// arrival rates would go negative.
	if lin.ArrivedCPUs != 8 {
		t.Fatalf("linux arrived = %d, want 8 (2 nodes x 4 ppn)", lin.ArrivedCPUs)
	}
	if win.ArrivedCPUs != 4 {
		t.Fatalf("windows arrived = %d, want 4", win.ArrivedCPUs)
	}
	if _, err := c.Submit(linJob(2*time.Hour, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := c.SideInfo(osid.Linux).ArrivedCPUs; got != 12 {
		t.Fatalf("linux arrived after third job = %d, want 12", got)
	}
}

func TestSideInfoCarriesSwitchLatencyEstimate(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	for _, os := range []osid.OS{osid.Linux, osid.Windows} {
		if got, want := c.SideInfo(os).SwitchLatency, c.SwitchLatencyEstimate(os); got != want || got <= 0 {
			t.Fatalf("%s switch latency = %v, want %v (>0)", os, got, want)
		}
	}
}
