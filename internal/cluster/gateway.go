package cluster

import (
	"fmt"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/controller"
	"repro/internal/detector"
	"repro/internal/hardware"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/pxe"
	"repro/internal/winhpc"
)

// This file implements controller.Gateway: how the daemons observe the
// two sides and how switch orders become batch jobs and reboots.

// SideInfo implements controller.Gateway. Every figure comes from a
// maintained counter: the node total from the cluster's census, the
// idle nodes (up on the side with no CPU in use) from the side's
// scheduler. The detector report is left empty: Detect runs it.
func (c *Cluster) SideInfo(os osid.OS) controller.SideState {
	s := controller.SideState{
		OS:            os,
		CoresPerNode:  c.cfg.CoresPerNode,
		SwitchLatency: c.SwitchLatencyEstimate(os),
	}
	switch os {
	case osid.Linux:
		stats := c.PBS.QueueStats()
		s.RunningJobs = stats.Running
		s.QueuedJobs = stats.Queued
		s.QueuedCPUs = stats.QueuedCPUs
		s.IdleNodes = stats.IdleNodes
	case osid.Windows:
		snap := c.Win.Snapshot()
		s.RunningJobs = snap.Running
		s.QueuedJobs = snap.Queued
		s.QueuedCPUs = snap.PendingCores
		s.IdleNodes = snap.IdleNodes
	default:
		return s
	}
	s.PendingAway = c.pending[os]
	s.ArrivedCPUs = c.arrived[os]
	s.TotalNodes = c.nodesOn[os]
	return s
}

// Detect implements controller.Gateway: it runs the side's queue-state
// detector, which gives the zero report on error, as it does for an
// invalid side.
func (c *Cluster) Detect(os osid.OS) (rep detector.Report) {
	switch os {
	case osid.Linux:
		rep, _ = c.pbsDet.Detect()
	case osid.Windows:
		rep, _ = c.winDet.Detect()
	}
	return rep
}

// SwitchJobScript renders the Figure-4 PBS batch script for a switch
// to the target OS; the v1 Linux donor path parses and submits it so
// the artifact drives the real request shape.
func (c *Cluster) SwitchJobScript(target osid.OS) string {
	return fmt.Sprintf(`#!/bin/bash
#PBS -l nodes=1:ppn=%d
#PBS -N release_1_node
#PBS -q default
#PBS -j oe
#PBS -o reboot_log.out
#PBS -r n
echo $PBS_JOBID >>/home/dualboot/reboot_log/rebootjob.log #write logs
sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst %s #changes default boot OS
sudo reboot #reboot node
sleep 10 #leave 10 seconds to avoid job be finished before reboot
`, c.cfg.CoresPerNode, target)
}

// OrderSwitch implements controller.Gateway: submit switch batch jobs
// on the donor side. Submitting through the scheduler is the paper's
// central trick — "job scheduler can automatically locate free nodes,
// and all the running jobs can be protected from other accidental
// operations".
func (c *Cluster) OrderSwitch(donor, target osid.OS, count int) int {
	if count <= 0 || !donor.Valid() || !target.Valid() || donor == target {
		return 0
	}
	// In the final v2 design the cluster-wide flag is set once per
	// order batch (step 4 in Figure 11: "Set Target OS Flag"). The
	// per-MAC variant cannot act here — the daemon does not yet know
	// which machine the scheduler will book (the Figure-12 problem) —
	// so its menu write happens inside the switch job instead.
	if c.cfg.Mode != HybridV1 && c.PXE != nil && c.PXE.Mode() == pxe.ModeFlag {
		if c.PXE.Flag() != target {
			if err := c.PXE.SetFlag(target); err != nil {
				c.logf("pxe flag error: %v", err)
				return 0
			}
			c.controlActions++
			c.logf("pxe: target OS flag -> %s", target)
		}
	}
	submitted := 0
	for i := 0; i < count; i++ {
		if c.submitSwitchJob(donor, target) {
			submitted++
		}
	}
	return submitted
}

// submitSwitchJob books one full node on the donor side; when the job
// runs it performs the version-specific boot-config action and on exit
// the node reboots.
func (c *Cluster) submitSwitchJob(donor, target osid.OS) bool {
	var bookedHost string
	exec := func(hosts []string) {
		if len(hosts) == 0 {
			return
		}
		bookedHost = hosts[0]
		// Point the booked node's boot config at the target: the FAT
		// rewrite for v1 (bootcontrol.pl), the per-MAC menu for the
		// Figure-12 variant, and a no-op in flag mode (the flag was
		// set before submission).
		if n, ok := c.byName[bookedHost]; ok {
			if err := c.pointBootConfig([]*Node{n}, target); err != nil {
				c.logf("boot config edit failed on %s: %v", bookedHost, err)
				return
			}
			c.logf("switch job: %s boot config -> %s", bookedHost, target)
		}
	}
	onEnd := func() {
		c.pending[donor]--
		if bookedHost == "" {
			return // job died before placement (node loss)
		}
		c.beginSwitch(bookedHost, target)
	}

	switch donor {
	case osid.Linux:
		script := c.SwitchJobScript(target)
		parsed, err := pbs.ParseScript(script)
		if err != nil {
			c.logf("switch script parse error: %v", err)
			return false
		}
		req := parsed.Request
		req.Owner = "dualboot@" + c.PBS.Name()
		req.Runtime = c.cfg.SwitchJobRuntime
		req.Exec = exec
		req.OnEnd = func(*pbs.Job) { onEnd() }
		if _, err := c.PBS.Qsub(req); err != nil {
			c.logf("switch qsub failed: %v", err)
			return false
		}
	case osid.Windows:
		_, err := c.Win.SubmitJob(winhpc.JobSpec{
			Name:    "release_1_node",
			Owner:   "HPC\\dualboot",
			Unit:    winhpc.UnitNode,
			Count:   1,
			Runtime: c.cfg.SwitchJobRuntime,
			Exec:    exec,
			OnEnd:   func(*winhpc.Job) { onEnd() },
		})
		if err != nil {
			c.logf("switch submit failed: %v", err)
			return false
		}
	default:
		return false
	}
	c.pending[donor]++
	return true
}

// beginSwitch takes a node through shutdown → boot chain → re-register
// on the target side. The boot chain is evaluated *after* shutdown, so
// a v2 flag flip during shutdown redirects the node — faithful to the
// single-flag design.
func (c *Cluster) beginSwitch(name string, target osid.OS) {
	n, ok := c.byName[name]
	if !ok || n.Switching || n.Broken {
		return
	}
	from := n.OS
	n.Target = target
	c.setState(n, osid.None, true, n.Broken)
	n.HW.Power = hardware.PowerShuttingDown
	c.logf("switch: %s %s -> %s (shutdown)", name, from, target)

	// Deregister from the donor scheduler.
	switch from {
	case osid.Linux:
		_ = c.PBS.SetNodeAvailable(name, false)
	case osid.Windows:
		_ = c.Win.SetNodeOnline(name, false)
	}

	c.Eng.After(c.cfg.Latency.Shutdown, func() {
		n.HW.Power = hardware.PowerBooting
		if c.cfg.BootFailureProb > 0 && c.rng.Float64() < c.cfg.BootFailureProb {
			c.markBootFailed(n, "switch", fmt.Errorf("injected hardware fault"))
			return
		}
		c.boot(n, "switch", switchUp)
	})
}

// switchUp writes the log line of a switch's landing.
func switchUp(c *Cluster, n *Node, res bootmgr.Result) {
	c.logf("switch: %s up in %s after %v", n.HW.Name, res.OS, c.cfg.Latency.Shutdown+res.Latency)
}

// boot runs n's boot chain now and lands n on the side it reaches, for
// an OS switch and a reimage alike. A chain that errors marks n broken
// (markBootFailed, logged under context). Otherwise, res.Latency
// later, n leaves the switching state healthy on res.OS, powered on
// and registered with that side's scheduler, and up writes the
// landing's log line (a plain function, so a boot builds no closure
// for it). Healthy repairs a reimaged broken node; a switching node is
// never broken, since beginSwitch refuses broken nodes and
// markBootFailed ends the switch.
func (c *Cluster) boot(n *Node, context string, up func(*Cluster, *Node, bootmgr.Result)) {
	res, err := bootmgr.Boot(n.HW, bootmgr.Env{
		PXE:     c.PXE,
		Latency: *c.cfg.Latency,
		Rand:    c.rng,
	})
	if err != nil {
		c.markBootFailed(n, context, err)
		return
	}
	c.Eng.After(res.Latency, func() {
		c.setState(n, res.OS, false, false)
		n.HW.Power = hardware.PowerOn
		n.HW.BootedOS = res.OS
		switch res.OS {
		case osid.Linux:
			_ = c.PBS.SetNodeAvailable(n.HW.Name, true)
		case osid.Windows:
			_ = c.Win.SetNodeOnline(n.HW.Name, true)
		}
		up(c, n, res)
	})
}

// markBootFailed records a boot-chain casualty: the node leaves the
// switching state broken and powered off, out of service until an
// administrator intervenes. Injected faults and real boot-chain
// errors share this bookkeeping so the two paths cannot diverge.
func (c *Cluster) markBootFailed(n *Node, context string, err error) {
	c.setState(n, n.OS, false, true)
	n.HW.Power = hardware.PowerOff
	c.logf("%s: %s boot FAILED: %v", context, n.HW.Name, err)
}

// ForceSwitch reboots a specific idle node immediately (administrative
// action / tests); it bypasses the scheduler booking.
func (c *Cluster) ForceSwitch(name string, target osid.OS) error {
	n, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", name)
	}
	if n.Switching {
		return fmt.Errorf("cluster: %s already switching", name)
	}
	if err := c.pointBootConfig([]*Node{n}, target); err != nil {
		return err
	}
	c.beginSwitch(name, target)
	return nil
}

// SwitchLatencyEstimate returns the planning estimate for a switch on
// this cluster's configuration.
func (c *Cluster) SwitchLatencyEstimate(target osid.OS) time.Duration {
	viaPXE := c.cfg.Mode != HybridV1
	grubSec := 10 // control menu timeout
	if viaPXE {
		grubSec = 3 // PXE menu timeout
	}
	return bootmgr.SwitchLatency(*c.cfg.Latency, target, viaPXE, grubSec)
}

var _ controller.Gateway = (*Cluster)(nil)
