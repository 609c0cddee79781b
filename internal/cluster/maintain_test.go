package cluster

import (
	"testing"
	"time"

	"repro/internal/osid"
)

func TestV1ReimageDestroysLinuxAndCostsManualSteps(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 8})
	// enode09 starts on Windows and is idle: reimage it.
	rep, err := c.ReimageWindows("enode09", true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LinuxLost {
		t.Fatal("v1 clean-based reimage kept Linux?")
	}
	if !rep.Redeployed {
		t.Fatal("Linux not redeployed")
	}
	if rep.ManualSteps != 4 {
		t.Fatalf("manual steps = %d, want the §III-C four", rep.ManualSteps)
	}
	c.Eng.RunFor(time.Hour)
	n := c.byName["enode09"]
	if n.OS != osid.Windows || n.Broken {
		t.Fatalf("node after reimage: %+v", n)
	}
	// And it can still switch to Linux afterwards (redeploy restored
	// the dual-boot machinery).
	if err := c.ForceSwitch("enode09", osid.Linux); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	if n.OS != osid.Linux {
		t.Fatalf("post-reimage switch failed: %v", n.OS)
	}
}

func TestV1ReimageWithoutRepairBricksLinuxSide(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV1, InitialLinux: 8})
	rep, err := c.ReimageWindows("enode09", false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LinuxLost || rep.Redeployed {
		t.Fatalf("rep = %+v", rep)
	}
	c.Eng.RunFor(time.Hour)
	n := c.byName["enode09"]
	if n.OS != osid.Windows {
		t.Fatalf("node = %v", n.OS)
	}
	// A switch to Linux is now impossible: the FAT control partition
	// (and everything else Linux) is gone, so even pointing the boot
	// config fails.
	if err := c.ForceSwitch("enode09", osid.Linux); err == nil {
		t.Fatal("switch ordered against a destroyed Linux install")
	}
}

func TestV2ReimagePreservesLinux(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	rep, err := c.ReimageWindows("enode09", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinuxLost || rep.Redeployed || rep.ManualSteps != 0 {
		t.Fatalf("v2 reimage rep = %+v", rep)
	}
	c.Eng.RunFor(time.Hour)
	// The switch record names the side the idle node left; a reimage
	// has no target intent, so wherever it lands it landed.
	if sw := c.Rec.Switches(); len(sw) != 1 || sw[0].Node != "enode09" ||
		sw[0].From != osid.Windows || sw[0].To != osid.None || !sw[0].OK {
		t.Fatalf("switch records = %+v, want one landed enode09 windows>none", sw)
	}
	n := c.byName["enode09"]
	// The v2 flag points at Linux initially, so after the reimage the
	// PXE boot lands the node on Linux — the batch-reimage behaviour.
	if !n.OS.Valid() || n.Broken {
		t.Fatalf("node after reimage: %+v", n)
	}
	// The Linux system survived: switching (or landing) on Linux works.
	if n.OS != osid.Linux {
		if err := c.ForceSwitch("enode09", osid.Linux); err != nil {
			t.Fatal(err)
		}
		c.Eng.RunFor(time.Hour)
	}
	if c.byName["enode09"].OS != osid.Linux {
		t.Fatal("linux side unusable after v2 reimage")
	}
}

func TestReimageRefusesBusyNode(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	// Occupy the Windows side.
	trace := []struct{}{}
	_ = trace
	if _, err := c.Submit(winJob(0, 8, time.Hour)); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Minute)
	var busy string
	for _, n := range c.Nodes() {
		if n.OS == osid.Windows && !c.nodeIdle(n) {
			busy = n.HW.Name
			break
		}
	}
	if busy == "" {
		t.Fatal("no busy windows node found")
	}
	if _, err := c.ReimageWindows(busy, false); err == nil {
		t.Fatal("reimage of a busy node accepted")
	}
	if _, err := c.ReimageWindows("ghost", false); err == nil {
		t.Fatal("reimage of unknown node accepted")
	}
}

func TestQholdQrls(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, InitialLinux: 8})
	if _, err := c.Submit(linJob(0, 8, time.Hour)); err != nil { // occupies all linux nodes
		t.Fatal(err)
	}
	h, err := c.Submit(linJob(0, 2, 30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	held := c.Rec.JobID(h)
	c.Eng.RunFor(time.Minute)
	if err := c.PBS.Qhold(held); err != nil {
		t.Fatal(err)
	}
	// Held job is skipped by the scheduler even after capacity frees.
	c.Eng.RunFor(2 * time.Hour)
	j, _ := c.PBS.Job(held)
	if j.State.String() != "H" {
		t.Fatalf("held state = %v", j.State)
	}
	if err := c.PBS.Qrls(held); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(2 * time.Hour)
	j, _ = c.PBS.Job(held)
	if j.State.String() != "C" {
		t.Fatalf("released job state = %v", j.State)
	}
	// Error paths.
	if err := c.PBS.Qhold(held); err == nil {
		t.Fatal("hold of completed job accepted")
	}
	if err := c.PBS.Qrls(held); err == nil {
		t.Fatal("release of non-held job accepted")
	}
	if err := c.PBS.Qhold("ghost"); err == nil {
		t.Fatal("hold of unknown job accepted")
	}
	if err := c.PBS.Qrls("ghost"); err == nil {
		t.Fatal("release of unknown job accepted")
	}
}

// Reimaging a node whose boot chain failed is how an administrator
// repairs it: once the reimage boot lands, the node serves work again
// and is no longer counted broken, and the controller can switch it.
func TestReimageRepairsBrokenNode(t *testing.T) {
	c := newCluster(t, Config{Mode: HybridV2, BootFailureProb: 1})
	if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	if c.BrokenCount() != 1 {
		t.Fatalf("broken = %d after an injected boot failure, want 1", c.BrokenCount())
	}
	if _, err := c.ReimageWindows("enode01", false); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(time.Hour)
	n := c.byName["enode01"]
	if n.OS != osid.Windows || n.Broken {
		t.Fatalf("reimaged node on %v, broken %v; want windows, repaired", n.OS, n.Broken)
	}
	if c.BrokenCount() != 0 {
		t.Fatalf("broken = %d after the repair, want 0", c.BrokenCount())
	}
	s := c.TakeSnapshot()
	if total := s.LinuxNodes + s.WindowsNodes + s.Switching + s.Broken; total != 16 {
		t.Fatalf("snapshot %+v adds up to %d nodes, want 16", s, total)
	}
	c.cfg.BootFailureProb = 0
	if err := c.ForceSwitch("enode01", osid.Linux); err != nil {
		t.Fatal(err)
	}
	if !n.Switching {
		t.Fatal("a repaired node was refused a switch")
	}
}
