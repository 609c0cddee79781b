package cluster

import (
	"fmt"

	"repro/internal/bootmgr"
	"repro/internal/deploy"
	"repro/internal/hardware"
	"repro/internal/oscar"
	"repro/internal/osid"
)

// Live maintenance: reimaging nodes of a running cluster, reproducing
// the operational difference between the two dualboot-oscar
// generations (§III-C vs §IV-B). A v1 Windows reimage wipes the whole
// disk — Linux is gone until an administrator redeploys it — while a
// v2 reimage only reformats partition 1.

// ReimageReport describes a maintenance operation on a live node.
type ReimageReport struct {
	Node          string
	Windows       deploy.WindowsReport
	LinuxLost     bool // the Linux install was destroyed (v1 pain)
	LinuxRedeploy oscar.DeployReport
	Redeployed    bool
	ManualSteps   int
}

// ReimageWindows reimages a node's Windows partition with the
// generation-appropriate diskpart script. The node must be idle on
// the Windows side (or down); the reimage reboots it into Windows.
// With v1, the clean-based script destroys the Linux install and —
// when repairLinux is set — the OSCAR image is redeployed afterwards,
// costing the v1 manual patch steps.
func (c *Cluster) ReimageWindows(name string, repairLinux bool) (ReimageReport, error) {
	rep := ReimageReport{Node: name}
	n, ok := c.byName[name]
	if !ok {
		return rep, fmt.Errorf("cluster: unknown node %s", name)
	}
	if n.Switching {
		return rep, fmt.Errorf("cluster: %s is mid-switch", name)
	}
	if n.OS == osid.Windows && !c.nodeIdle(n) {
		return rep, fmt.Errorf("cluster: %s is running Windows work", name)
	}
	if n.OS == osid.Linux && !c.nodeIdle(n) {
		return rep, fmt.Errorf("cluster: %s is running Linux work", name)
	}

	script := deploy.V1Diskpart
	if c.cfg.Mode != HybridV1 {
		script = deploy.V2ReimageDiskpart
	}
	dp, err := deploy.ParseDiskpart(script)
	if err != nil {
		return rep, err
	}

	// Take the node out of service on whichever side it was on.
	from := n.OS
	switch from {
	case osid.Linux:
		_ = c.PBS.SetNodeAvailable(name, false)
	case osid.Windows:
		_ = c.Win.SetNodeOnline(name, false)
	}
	if from.Valid() {
		c.Rec.NodeDown(from)
	}
	c.setState(n, osid.None, false, n.Broken)
	n.HW.Power = hardware.PowerOff

	winRep, err := deploy.DeployWindows(n.HW, dp)
	if err != nil {
		return rep, fmt.Errorf("cluster: reimage %s: %w", name, err)
	}
	rep.Windows = winRep
	rep.LinuxLost = winRep.LinuxPartitionsLost > 0
	c.logf("reimage: %s windows reimaged (linux partitions lost: %d)", name, winRep.LinuxPartitionsLost)

	if rep.LinuxLost && repairLinux {
		linRep, err := oscar.DeployNode(n.HW, c.img)
		if err != nil {
			return rep, fmt.Errorf("cluster: linux redeploy %s: %w", name, err)
		}
		rep.LinuxRedeploy = linRep
		rep.Redeployed = true
		rep.ManualSteps = linRep.ManualSteps
		if c.cfg.Mode == HybridV1 {
			if err := c.setV1ControlFile(n.HW, osid.Windows); err != nil {
				return rep, err
			}
		}
		c.logf("reimage: %s linux redeployed (%d manual steps)", name, linRep.ManualSteps)
	}

	// The node boots back into Windows (the reimage script leaves the
	// Windows partition active; in v2 the flag may redirect it, which
	// is faithful — administrators reimaged whole batches per OS).
	c.beginReimageBoot(n)
	return rep, nil
}

// beginReimageBoot boots a node after maintenance; unlike beginSwitch
// it has no donor side to deregister (already done) and no target
// expectation — wherever the boot chain lands is recorded.
func (c *Cluster) beginReimageBoot(n *Node) {
	c.setState(n, n.OS, true, n.Broken)
	n.HW.Power = hardware.PowerBooting
	c.Rec.SwitchStarted(n.HW.Name, osid.None, osid.None)
	c.Eng.After(c.cfg.Latency.POST, func() {
		res, err := bootmgr.Boot(n.HW, bootmgr.Env{
			PXE:     c.PXE,
			Latency: *c.cfg.Latency,
			Rand:    c.rng,
		})
		if err != nil {
			c.markBootFailed(n, "reimage", err)
			return
		}
		c.Eng.After(res.Latency, func() {
			c.setState(n, res.OS, false, n.Broken)
			n.HW.BootedOS = res.OS
			n.HW.Power = hardware.PowerOn
			switch res.OS {
			case osid.Linux:
				_ = c.PBS.SetNodeAvailable(n.HW.Name, true)
			case osid.Windows:
				_ = c.Win.SetNodeOnline(n.HW.Name, true)
			}
			c.Rec.NodeUp(res.OS)
			c.Rec.SwitchFinished(n.HW.Name, true)
			c.logf("reimage: %s back up in %s", n.HW.Name, res.OS)
			c.notifySwitchLanded(n.HW.Name, res.OS, true)
		})
	})
}
