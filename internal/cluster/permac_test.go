package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
	"repro/internal/pxe"
	"repro/internal/workload"
)

// These tests cover the Figure-12 per-MAC boot control variant — v2's
// initial design — against the final single-flag design (Figure 13).

func TestPerMACProvisioning(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, PerMACBoot: true, InitialLinux: 8})
	if c.PXE.Mode() != pxe.ModePerMAC {
		t.Fatalf("pxe mode = %v", c.PXE.Mode())
	}
	// One menu per node plus the default.
	if got := len(c.PXE.MenuFiles()); got != 17 {
		t.Fatalf("menu files = %d, want 17", got)
	}
}

func TestPerMACSwitchLandsOnTarget(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, PerMACBoot: true, InitialLinux: 16, Cycle: 5 * time.Minute})
	sum := runTrace(c, workload.Trace{winJob(0, 2, time.Hour)}, 24*time.Hour)
	if sum.JobsCompleted[osid.Windows] != 1 {
		t.Fatalf("completed = %v", sum.JobsCompleted)
	}
	for _, sw := range c.Rec.Switches() {
		if !sw.OK {
			t.Fatalf("per-MAC switch missed target: %+v", sw)
		}
	}
}

func TestPerMACPaysOneActionPerNode(t *testing.T) {
	// The same wide-job scenario through both v2 variants: per-MAC
	// needs one menu write per node, the flag amortises to one.
	trace := workload.Trace{winJob(0, 3, time.Hour)}

	perMAC := newCluster(t, Config{Mode: HybridV2, PerMACBoot: true, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(perMAC, trace, 24*time.Hour)
	flag := newCluster(t, Config{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute})
	runTrace(flag, trace, 24*time.Hour)

	pm, fl := perMAC.Summary(), flag.Summary()
	if pm.Switches != fl.Switches {
		t.Fatalf("switch counts diverge: %d vs %d", pm.Switches, fl.Switches)
	}
	if perMAC.ControlActions() != pm.Switches {
		t.Fatalf("per-MAC actions = %d, want one per switch (%d)", perMAC.ControlActions(), pm.Switches)
	}
	if flag.ControlActions() >= perMAC.ControlActions() {
		t.Fatalf("flag actions (%d) should undercut per-MAC (%d)", flag.ControlActions(), perMAC.ControlActions())
	}
}

func TestPerMACRebootDoesNotMoveOtherNodes(t *testing.T) {
	// The property the per-MAC design buys: an unrelated reboot keeps
	// a node on its own OS even while another node is being switched.
	c := newCluster(t, Config{Mode: HybridV2, PerMACBoot: true, InitialLinux: 8})
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	// enode02 reboots "accidentally" (power reset) while enode01's
	// switch is pending: its per-MAC menu still says Linux.
	if err := c.ForceSwitch("enode02", osid.Linux); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	if c.byName["enode01"].OS != osid.Windows {
		t.Fatalf("enode01 = %v", c.byName["enode01"].OS)
	}
	if c.byName["enode02"].OS != osid.Linux {
		t.Fatalf("enode02 = %v, per-MAC menu failed to pin it", c.byName["enode02"].OS)
	}
}

func TestFlagModeRebootMovesEveryRebootingNode(t *testing.T) {
	// The flag design's hazard (accepted by the paper because "the
	// whole dual-boot cluster will only need one system at one time"):
	// any reboot while the flag points away moves the node.
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	// enode02 (Linux) power-cycles while the flag says Windows.
	c.beginSwitch("enode02", osid.Linux) // intent: stay on Linux
	c.Eng.RunFor(time.Hour)
	if c.byName["enode02"].OS != osid.Windows {
		t.Fatalf("enode02 = %v, expected the shared flag to capture it", c.byName["enode02"].OS)
	}
	// And the switch record is marked as missing its target.
	found := false
	for _, sw := range c.Rec.Switches() {
		if sw.Node == "enode02" && !sw.OK {
			found = true
		}
	}
	if !found {
		t.Fatal("captured reboot not recorded as off-target")
	}
}
