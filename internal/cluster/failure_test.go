package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/grubcfg"
	"repro/internal/osid"
	"repro/internal/workload"
)

// Failure-injection tests: the hybrid must degrade sanely when the
// infrastructure under it misbehaves.

func TestPXEOutageFallsBackToLocalBoot(t *testing.T) {
	// v2 nodes PXE-boot, but if the head's DHCP is down they fall
	// through to the local GRUB menu (which the OSCAR image installs
	// as a Linux-default fallback).
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	c.PXE.SetFlag(osid.Windows)
	c.PXE.SetEnabled(false)
	c.beginSwitch("enode01", osid.Windows)
	c.Eng.RunFor(time.Hour)
	n := c.byName["enode01"]
	if n.Broken {
		t.Fatal("PXE outage bricked the node")
	}
	if n.OS != osid.Linux {
		t.Fatalf("fallback boot landed in %v, local menu defaults to linux", n.OS)
	}
	// The switch is recorded as off-target, not successful.
	sw := c.Rec.Switches()
	if len(sw) != 1 || sw[0].OK {
		t.Fatalf("switch records = %+v", sw)
	}
}

func TestPXERecoveryAfterOutage(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	c.PXE.SetEnabled(false)
	c.beginSwitch("enode01", osid.Windows)
	c.Eng.RunFor(time.Hour)
	c.PXE.SetEnabled(true)
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	if c.byName["enode01"].OS != osid.Windows {
		t.Fatalf("node did not recover after PXE restore: %v", c.byName["enode01"].OS)
	}
}

func TestCorruptControlFileBricksV1Node(t *testing.T) {
	// A truncated FAT control file is a real v1 failure mode (FAT and
	// abrupt power-off do not mix). The boot must fail cleanly and the
	// node must be quarantined, not looped.
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 16})
	n := c.byName["enode03"]
	fat, err := c.v1FATPartition(n.HW)
	if err != nil {
		t.Fatal(err)
	}
	if err := fat.WriteFile(grubcfg.ControlFileName, []byte("default 7\n")); err != nil {
		t.Fatal(err)
	}
	c.beginSwitch("enode03", osid.Windows)
	c.Eng.RunFor(time.Hour)
	if !n.Broken {
		t.Fatal("corrupt control file not detected")
	}
	if c.BrokenCount() != 1 {
		t.Fatalf("broken = %d", c.BrokenCount())
	}
}

func TestBrokenNodeExcludedFromFurtherSwitches(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 16})
	n := c.byName["enode01"]
	winPart, _ := n.HW.Disk.Partition(1)
	winPart.RemoveFile("/bootmgr")
	c.ForceSwitch("enode01", osid.Windows)
	c.Eng.RunFor(time.Hour)
	if !n.Broken {
		t.Fatal("node not broken")
	}
	if err := c.ForceSwitch("enode01", osid.Linux); err != nil {
		t.Fatal(err) // accepted but ignored by beginSwitch
	}
	c.Eng.RunFor(time.Hour)
	if n.OS != osid.None || !n.Broken {
		t.Fatalf("broken node resurrected: %+v", n)
	}
}

func TestClusterSurvivesBrokenNodeUnderLoad(t *testing.T) {
	// A node dies mid-run; the remaining 15 still serve the workload.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	victim := c.byName["enode05"]
	winPart, _ := victim.HW.Disk.Partition(1)
	winPart.RemoveFile("/bootmgr")

	trace := workload.Trace{
		winJob(0, 2, time.Hour),
		linJob(10*time.Minute, 2, time.Hour),
	}
	// Force the victim toward Windows so its boot fails.
	c.Eng.After(time.Minute, func() { _ = c.ForceSwitch("enode05", osid.Windows) })
	sum := runTrace(c, trace, 48*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 || sum.JobsCompleted[osid.Linux] != 1 {
		t.Fatalf("completed = %v with one broken node", sum.JobsCompleted)
	}
	if c.BrokenCount() != 1 {
		t.Fatalf("broken = %d", c.BrokenCount())
	}
}

func TestSwitchJobOnNodeLostMidFlight(t *testing.T) {
	// The donor node goes down between switch-job submission and
	// placement; the order must not strand the pending counter.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 1, Cycle: 5 * time.Minute})
	// Only enode01 is on Linux. Submit a switch order against it, then
	// kill it before the job completes.
	if n := c.OrderSwitch(osid.Linux, osid.Windows, 1); n != 1 {
		t.Fatalf("order = %d", n)
	}
	c.Eng.RunFor(time.Second) // job placed, occupying the node
	c.PBS.SetNodeAvailable("enode01", false)
	c.Eng.RunFor(time.Hour)
	// The switch job was not rerunnable (-r n): it dies with the node;
	// pending must drain back to zero.
	if got := c.SideInfo(osid.Linux).PendingAway; got != 0 {
		t.Fatalf("pending stuck at %d", got)
	}
}

func TestEventLogCarriesFailures(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 16})
	n := c.byName["enode01"]
	winPart, _ := n.HW.Disk.Partition(1)
	winPart.RemoveFile("/bootmgr")
	c.ForceSwitch("enode01", osid.Windows)
	c.Eng.RunFor(time.Hour)
	joined := ""
	for _, e := range c.Events() {
		joined += e.What + "\n"
	}
	if !strings.Contains(joined, "boot FAILED") {
		t.Fatalf("failure not logged:\n%s", joined)
	}
}
