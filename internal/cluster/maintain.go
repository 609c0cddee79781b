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
// costing the v1 manual patch steps. The node leaves service only once
// the deploys have succeeded: it opens a switch from the side it was
// on, and an error return leaves it where it was.
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

	// Take the node out of service on whichever side it was on and boot
	// it back up. Wherever the chain lands is recorded: the reimage
	// script leaves the Windows partition active, and in v2 the flag
	// may redirect the node, which is faithful (administrators
	// reimaged whole batches per OS).
	switch n.OS {
	case osid.Linux:
		_ = c.PBS.SetNodeAvailable(name, false)
	case osid.Windows:
		_ = c.Win.SetNodeOnline(name, false)
	}
	c.setState(n, osid.None, true, n.Broken)
	n.HW.Power = hardware.PowerBooting
	c.Eng.After(c.cfg.Latency.POST, func() { c.boot(n, "reimage", reimageUp) })
	return rep, nil
}

// reimageUp writes the log line of a reimage's landing.
func reimageUp(c *Cluster, n *Node, res bootmgr.Result) {
	c.logf("reimage: %s back up in %s", n.HW.Name, res.OS)
}
