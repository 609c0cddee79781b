// Package cluster assembles the full hybrid system: simulated compute
// nodes with dual-boot disks, the PBS and Windows HPC head nodes, the
// PXE service (v2), the communicator bus and the dual-boot controller.
// It is the "Eridani" of this reproduction — the 16-node, 64-core
// cluster the paper deployed dualboot-oscar on — and implements the
// controller's Gateway with the generation-specific switch mechanism:
//
//   - v1: the switch batch job books a full node through the donor
//     scheduler, swaps the FAT partition's controlmenu.lst and reboots
//     (paper §III-B);
//   - v2: the controller flips the cluster-wide PXE target-OS flag
//     once and submits plain reboot jobs (paper §IV-A).
//
// Static-split and mono-stable baselines share the same assembly with
// the controller disabled or configured to return nodes home.
package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/comm"
	"repro/internal/controller"
	"repro/internal/deploy"
	"repro/internal/detector"
	"repro/internal/grubcfg"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/oscar"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/pxe"
	"repro/internal/simtime"
	"repro/internal/winhpc"
)

// Mode selects the cluster organisation under test.
type Mode uint8

const (
	// HybridV1 is dualboot-oscar 1.0: FAT control file, per-node
	// switch jobs, GRUB in the MBR.
	HybridV1 Mode = iota
	// HybridV2 is dualboot-oscar 2.0: PXE flag, plain reboot jobs.
	HybridV2
	// Static is the baseline the paper's introduction argues against:
	// the cluster divided into fixed Linux and Windows sub-clusters.
	Static
	// MonoStable is the AHM2010 comparison system: nodes rest in Linux
	// and are booted to Windows per demand burst, returning home as
	// soon as the Windows queue drains.
	MonoStable
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case HybridV1:
		return "hybrid-v1"
	case HybridV2:
		return "hybrid-v2"
	case Static:
		return "static-split"
	case MonoStable:
		return "mono-stable"
	default:
		return "unknown"
	}
}

// Config parameterises the cluster. Zero values reproduce Eridani.
type Config struct {
	Mode         Mode
	Nodes        int // default 16
	CoresPerNode int // default 4
	// InitialLinux nodes boot into Linux at time zero; the rest run
	// Windows. Zero means half; a negative value pins every node to
	// Windows (the only way to express a Windows-only static split).
	InitialLinux int
	// Cycle is the controller's reporting interval (default 10m).
	Cycle time.Duration
	// Policy overrides the controller decision rule (default FCFS).
	Policy controller.Policy
	// SchedPolicy selects both head schedulers' queue discipline:
	// strict FCFS (the default, the paper's deployment) or
	// reservation-based EASY backfill.
	SchedPolicy SchedPolicy
	// Latency overrides the boot timing model.
	Latency *bootmgr.LatencyModel
	// BusLatency is the head-node link latency (default 1ms).
	BusLatency time.Duration
	// SwitchJobRuntime is the switch job's occupancy (the paper's
	// script sleeps 10 seconds so the reboot outruns job exit).
	SwitchJobRuntime time.Duration
	// BootFailureProb is the probability that any one OS switch's
	// boot attempt suffers a hardware fault, leaving the node broken
	// and out of service (0 = the seed's fault-free behaviour). Drawn
	// from the cluster's seeded RNG, so runs stay deterministic; the
	// sweep subsystem uses it as its failure-rate axis.
	BootFailureProb float64
	// PerMACBoot selects v2's *initial* design (Figure 12): one PXE
	// menu per node MAC, written when the switch job learns which
	// machine it booked. The default is the final single-flag design
	// (Figure 13). Ignored for HybridV1.
	PerMACBoot bool
	Seed       int64
	// Engine, when non-nil, runs this cluster on a shared virtual
	// clock — the campus-grid layer schedules several clusters on one
	// engine. Nil creates a private engine.
	Engine *simtime.Engine
	// NamePrefix distinguishes node and head names when several
	// clusters coexist on a grid ("eridani-", "tauceti-", ...).
	NamePrefix string
}

func (c *Config) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	switch {
	case c.InitialLinux < 0:
		c.InitialLinux = 0 // all-Windows split
	case c.InitialLinux == 0 || c.InitialLinux > c.Nodes:
		c.InitialLinux = c.Nodes / 2
	}
	if c.Cycle <= 0 {
		c.Cycle = 10 * time.Minute
	}
	if c.BusLatency <= 0 {
		c.BusLatency = time.Millisecond
	}
	if c.SwitchJobRuntime <= 0 {
		c.SwitchJobRuntime = 10 * time.Second
	}
	if c.Latency == nil {
		m := bootmgr.DefaultLatencyModel()
		c.Latency = &m
	}
}

// Node is one compute node plus its dual-boot state. The cluster
// writes OS, Switching and Broken only through setState, which keeps
// the counted node census in step with them and opens and closes the
// node's switch.
type Node struct {
	HW        *hardware.Node
	OS        osid.OS // current side; None while switching
	Target    osid.OS // boot target while switching (None: no intent)
	Switching bool
	Broken    bool // boot chain failed; node out of service

	// from and since are the open switch's donor side and start.
	from  osid.OS
	since time.Duration

	// pbsNode / winNode cache the node's scheduler registrations (nil
	// on a side a static split never registered), so per-cycle idle
	// censuses skip the name lookups.
	pbsNode *pbs.Node
	winNode *winhpc.Node
}

// Event is a timestamped log line.
type Event struct {
	At   time.Duration
	What string
}

// Cluster is the assembled system.
type Cluster struct {
	Eng *simtime.Engine
	PBS *pbs.Server
	Win *winhpc.Scheduler
	PXE *pxe.Service // nil except v2
	Bus *comm.Bus
	Mgr *controller.Manager // nil in static mode
	Rec *metrics.Recorder

	cfg     Config
	img     *oscar.Image // the generation's node image (buildImage)
	nodes   []*Node
	byName  map[string]*Node
	rng     *rand.Rand
	pbsDet  detector.Detector
	winDet  detector.Detector
	pending [osSlots]int // outstanding switch orders by donor side
	arrived [osSlots]int // cumulative CPU demand submitted per side

	// The counted node census, kept by setState: booted nodes by side
	// (switching nodes excluded), nodes mid-switch, broken nodes.
	nodesOn           [osSlots]int
	switching, broken int

	// controlActions counts mechanism writes: FAT control-file edits
	// (v1) or PXE flag sets (v2). E8 compares these across versions.
	controlActions int
	events         []Event
	// pbsJobs and winJobs map a PBS SeqNo or HPC job ID n to the
	// recorder handle of the workload job behind it at index n-1, or
	// -1 for the switch jobs the cluster submits itself.
	pbsJobs, winJobs []int32
	// owners interns each trace user's scheduler-side owner names, so
	// a submission builds no owner string.
	owners map[string]owner
}

// osSlots sizes the per-side arrays: osid values are dense small
// integers (None, Linux, Windows).
const osSlots = int(osid.Windows) + 1

// New builds and provisions a cluster. One prototype disk is actually
// deployed, Windows via diskpart (Figures 10/15 semantics) and Linux
// via the OSCAR image for the configured generation, and every node
// boots from its own copy-on-write clone of it (hardware.Disk.Clone),
// so OS switches run through the real boot-chain interpreter and a
// write to one node's disk never reaches another's.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = simtime.NewEngine()
	}
	fqdn := "eridani.qgg.hud.ac.uk"
	winHead := "WINHEAD"
	if cfg.NamePrefix != "" {
		fqdn = cfg.NamePrefix + ".qgg.hud.ac.uk"
		winHead = cfg.NamePrefix + "-WINHEAD"
	}
	c := &Cluster{
		Eng:    eng,
		PBS:    pbs.NewServer(eng, fqdn),
		Win:    winhpc.NewScheduler(eng, winHead),
		Bus:    comm.NewBus(eng, cfg.BusLatency),
		cfg:    cfg,
		byName: make(map[string]*Node),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	c.Rec = metrics.NewRecorder(eng.Now, cfg.Nodes*cfg.CoresPerNode)
	c.Rec.JobIDs = c.jobID
	if cfg.SchedPolicy == SchedBackfill {
		c.PBS.Backfill = true
		c.Win.Backfill = true
	}
	c.pbsDet = detector.NewPBSDetector(c.PBS)
	c.winDet = detector.NewWinHPCDetector(c.Win)

	// Every v2-generation organisation boots through PXE; only v1
	// stays on local MBR GRUB. The static split also runs v2
	// deployment (it just never flips the flag).
	if cfg.Mode != HybridV1 {
		pxeMode := pxe.ModeFlag
		if cfg.PerMACBoot {
			pxeMode = pxe.ModePerMAC
		}
		svc, err := pxe.NewService(pxe.Config{Mode: pxeMode, InitialOS: osid.Linux})
		if err != nil {
			return nil, err
		}
		c.PXE = svc
	}

	if err := c.provisionNodes(); err != nil {
		return nil, err
	}
	c.wireSchedulers()

	switch cfg.Mode {
	case Static:
		// no controller
	default:
		c.Mgr = controller.NewManager(eng, c.Bus, c, controller.Config{
			Cycle:  cfg.Cycle,
			Policy: cfg.Policy,
		})
		c.Mgr.Start()
	}
	return c, nil
}

// provisionNodes deploys one prototype disk and gives every compute
// node a copy-on-write clone of it, as systemimager pushes one image to
// every node, then registers each node with both schedulers (available
// only on its starting side).
func (c *Cluster) provisionNodes() error {
	img, err := buildImage(c.cfg.Mode)
	if err != nil {
		return err
	}
	c.img = img
	dpScript := deploy.V1Diskpart
	if c.cfg.Mode != HybridV1 {
		dpScript = deploy.V2InitialDiskpart
	}
	dp, err := deploy.ParseDiskpart(dpScript)
	if err != nil {
		return err
	}
	// Windows first (v1 ordering requirement), then Linux on top.
	proto := hardware.NewNode(hardware.NodeSpec{Name: "prototype"})
	if _, err := deploy.DeployWindows(proto, dp); err != nil {
		return fmt.Errorf("cluster: %s: %w", proto.Name, err)
	}
	if _, err := oscar.DeployNode(proto, img); err != nil {
		return fmt.Errorf("cluster: %s: %w", proto.Name, err)
	}

	for i := 1; i <= c.cfg.Nodes; i++ {
		name := fmt.Sprintf("%senode%02d", nodePrefix(c.cfg.NamePrefix), i)
		hw := hardware.NewNode(hardware.NodeSpec{
			Name:     name,
			Index:    i + macOffset(c.cfg.NamePrefix),
			Cores:    c.cfg.CoresPerNode,
			PXEFirst: c.cfg.Mode != HybridV1,
		})
		hw.Disk = proto.Disk.Clone()

		startOS := osid.Windows
		if i <= c.cfg.InitialLinux {
			startOS = osid.Linux
		}
		if c.cfg.Mode == HybridV1 {
			// Point the node's FAT control file at its starting OS.
			if err := c.setV1ControlFile(hw, startOS); err != nil {
				return err
			}
		}
		if c.PXE != nil {
			if err := c.PXE.RegisterNode(hw.Addr); err != nil {
				return err
			}
			// Per-MAC menus start pointing at the node's own OS so an
			// unrelated reboot does not move it (the per-node property
			// the Figure-12 design buys).
			if c.PXE.Mode() == pxe.ModePerMAC {
				if err := c.PXE.SetNodeOS(hw.Addr, startOS); err != nil {
					return err
				}
			}
		}

		hw.Power = hardware.PowerOn
		hw.BootedOS = startOS
		node := &Node{HW: hw, OS: startOS}
		c.count(node, 1)
		c.nodes = append(c.nodes, node)
		c.byName[name] = node

		// A static split is literally two separate clusters: each
		// scheduler only knows its own nodes. Hybrids register every
		// node with both heads (down on the side it is not booted in).
		if c.cfg.Mode != Static || startOS == osid.Linux {
			pn, err := c.PBS.AddNode(name, c.cfg.CoresPerNode, startOS == osid.Linux)
			if err != nil {
				return err
			}
			node.pbsNode = pn
		}
		if c.cfg.Mode != Static || startOS == osid.Windows {
			wn, err := c.Win.AddNode(name, c.cfg.CoresPerNode, startOS == osid.Windows)
			if err != nil {
				return err
			}
			node.winNode = wn
		}
	}
	return nil
}

// buildImage builds the OSCAR image matching the mode's generation:
// what the head node keeps on disk, deployed at provisioning and again
// when ReimageWindows repairs a Linux install the reimage destroyed.
func buildImage(mode Mode) (*oscar.Image, error) {
	version, layoutText := oscar.V1, deploy.V1IdeDisk
	if mode != HybridV1 {
		version, layoutText = oscar.V2, deploy.V2IdeDisk
	}
	layout, err := deploy.ParseIdeDisk(layoutText)
	if err != nil {
		return nil, err
	}
	return oscar.BuildImage("oscarimage", version, layout)
}

func nodePrefix(p string) string {
	if p == "" {
		return ""
	}
	return p + "-"
}

// macOffset keeps MAC addresses unique across grid members.
func macOffset(prefix string) int {
	h := 0
	for _, r := range prefix {
		h = h*31 + int(r)
	}
	if h < 0 {
		h = -h
	}
	return (h % 251) * 1000
}

// setV1ControlFile rewrites a node's FAT controlmenu.lst to boot the
// target OS (copying the pre-staged variant into place, as the batch
// scripts do).
func (c *Cluster) setV1ControlFile(hw *hardware.Node, target osid.OS) error {
	fat, err := c.v1FATPartition(hw)
	if err != nil {
		return err
	}
	if fat.HasFile(grubcfg.ControlFileName) {
		if err := fat.RemoveFile(grubcfg.ControlFileName); err != nil {
			return err
		}
	}
	return fat.CopyFile(grubcfg.StagedControlFileName(target), grubcfg.ControlFileName)
}

// v1FATPartition locates the shared FAT control partition.
func (c *Cluster) v1FATPartition(hw *hardware.Node) (*hardware.Partition, error) {
	for _, p := range hw.Disk.Partitions() {
		if p.Type == hardware.FSFAT {
			return p, nil
		}
	}
	return nil, fmt.Errorf("cluster: %s has no FAT control partition", hw.Name)
}

// wireSchedulers connects job lifecycle hooks to the metrics
// recorder. A job only counts as ok when it genuinely completed: a
// PBS job that died mid-run from node loss reports Failed (a previous
// revision recorded it as ok, so a job that died counted as
// successfully completed in every utilisation/completion metric), and
// requeued rerunnable jobs suspend busy-core integration until their
// next attempt starts.
func (c *Cluster) wireSchedulers() {
	c.PBS.OnJobStart = func(j *pbs.Job) { c.Rec.JobStarted(handle(c.pbsJobs, j.SeqNo())) }
	c.PBS.OnJobRequeue = func(j *pbs.Job) { c.Rec.JobInterrupted(handle(c.pbsJobs, j.SeqNo())) }
	c.PBS.OnJobEnd = func(j *pbs.Job) {
		c.Rec.JobEnded(handle(c.pbsJobs, j.SeqNo()), !j.KilledAtWalltime() && !j.Failed())
	}
	c.Win.OnJobStart = func(j *winhpc.Job) { c.Rec.JobStarted(handle(c.winJobs, j.ID())) }
	c.Win.OnJobRequeue = func(j *winhpc.Job) { c.Rec.JobInterrupted(handle(c.winJobs, j.ID())) }
	c.Win.OnJobEnd = func(j *winhpc.Job) {
		c.Rec.JobEnded(handle(c.winJobs, j.ID()), j.State == winhpc.JobFinished)
		if c.cfg.Mode == MonoStable {
			c.returnNodesHome()
		}
	}
}

// jobID renders the ID of scheduler job number n on a side:
// "<seq>.<fqdn>" for PBS, "W<id>" for Windows HPC.
func (c *Cluster) jobID(os osid.OS, n int) string {
	if os == osid.Linux {
		return c.PBS.JobID(n)
	}
	return "W" + strconv.Itoa(n)
}

// handle returns the recorder handle of scheduler job number n (counted
// from 1), -1 when no workload job is behind it.
func handle(tab []int32, n int) int {
	if n < 1 || n > len(tab) {
		return -1
	}
	return int(tab[n-1])
}

// bind records h as the handle of scheduler job number n; numbers
// skipped since the last bind belong to switch jobs.
func bind(tab []int32, n, h int) []int32 {
	for len(tab) < n {
		tab = append(tab, -1)
	}
	tab[n-1] = int32(h)
	return tab
}

// returnNodesHome implements mono-stable behaviour: once the Windows
// queue is empty, every idle Windows node reboots back to Linux.
func (c *Cluster) returnNodesHome() {
	if snap := c.Win.Snapshot(); snap.Queued > 0 || snap.Running > 0 {
		return
	}
	var idle []*Node
	for _, n := range c.nodes {
		if n.OS == osid.Windows && !n.Switching && c.nodeIdle(n) {
			idle = append(idle, n)
		}
	}
	if len(idle) == 0 {
		return
	}
	// The boot configuration must point home before the reboots, or
	// the nodes would come straight back up in Windows.
	if err := c.pointBootConfig(idle, osid.Linux); err != nil {
		c.logf("mono-stable: boot config reset failed: %v", err)
		return
	}
	for _, n := range idle {
		c.logf("mono-stable: returning %s to linux", n.HW.Name)
		c.beginSwitch(n.HW.Name, osid.Linux)
	}
}

// pointBootConfig aims the version-appropriate boot mechanism of the
// given nodes at the target OS: v1 FAT files, v2 per-MAC menus, or the
// v2 cluster-wide flag (one action regardless of node count).
func (c *Cluster) pointBootConfig(nodes []*Node, target osid.OS) error {
	switch {
	case c.cfg.Mode == HybridV1:
		for _, n := range nodes {
			if err := c.setV1ControlFile(n.HW, target); err != nil {
				return err
			}
			c.controlActions++
		}
	case c.PXE != nil && c.PXE.Mode() == pxe.ModePerMAC:
		for _, n := range nodes {
			if err := c.PXE.SetNodeOS(n.HW.Addr, target); err != nil {
				return err
			}
			c.controlActions++
		}
	case c.PXE != nil:
		if c.PXE.Flag() != target {
			if err := c.PXE.SetFlag(target); err != nil {
				return err
			}
			c.controlActions++
		}
	}
	return nil
}

// setState moves a node to a side, switching flag and broken flag,
// keeping the counted census in step: it is the only writer of those
// three fields once provisioning has counted the node in, and the only
// source of switch facts. A node that starts switching opens its
// switch (the side it leaves and the instant; the caller sets Target).
// One that stops switching closes it in the recorder, as landed where
// it was meant to unless the node broke or came up on a side other
// than its Target. The recorder's switch-time integral follows the
// census count.
func (c *Cluster) setState(n *Node, os osid.OS, switching, broken bool) {
	was := n.Switching
	if switching && !was {
		n.from, n.since = n.OS, c.Eng.Now()
	}
	c.count(n, -1)
	n.OS, n.Switching, n.Broken = os, switching, broken
	c.count(n, 1)
	if switching == was {
		return
	}
	c.Rec.SetSwitching(c.switching)
	if !switching {
		ok := !broken && (n.Target == osid.None || os == n.Target)
		c.Rec.SwitchEnded(metrics.SwitchRecord{Node: n.HW.Name, From: n.from, To: n.Target, Started: n.since, OK: ok})
		n.Target = osid.None
	}
}

// count adds (sign 1) or removes (sign -1) a node's contribution to
// the census.
func (c *Cluster) count(n *Node, sign int) {
	if n.Switching {
		c.switching += sign
	} else {
		c.nodesOn[n.OS] += sign
	}
	if n.Broken {
		c.broken += sign
	}
}

// nodeIdle reports whether the node has no busy CPUs on its side.
func (c *Cluster) nodeIdle(n *Node) bool {
	switch n.OS {
	case osid.Linux:
		pn := n.pbsNode
		return pn != nil && pn.UsedCPUs() == 0 && pn.State() == pbs.NodeFree
	case osid.Windows:
		wn := n.winNode
		return wn != nil && wn.UsedCores() == 0 && wn.State() == winhpc.NodeOnline
	default:
		return false
	}
}

func (c *Cluster) logf(format string, args ...any) {
	c.events = append(c.events, Event{At: c.Eng.Now(), What: fmt.Sprintf(format, args...)})
}

// Events returns the event log.
func (c *Cluster) Events() []Event { return append([]Event(nil), c.events...) }

// ControlActions returns mechanism writes performed so far (FAT edits
// for v1, PXE flag sets for v2).
func (c *Cluster) ControlActions() int { return c.controlActions }

// Nodes returns the node table.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// NodesOn counts nodes currently booted into an OS.
func (c *Cluster) NodesOn(os osid.OS) int {
	if int(os) >= osSlots {
		return 0
	}
	return c.nodesOn[os]
}

// SwitchingCount counts nodes mid-switch.
func (c *Cluster) SwitchingCount() int { return c.switching }

// BrokenCount counts nodes whose boot chain failed.
func (c *Cluster) BrokenCount() int { return c.broken }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }
