package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/winhpc"
	"repro/internal/workload"
)

// This file submits the jobs internal/grid routes here and exposes the
// snapshot/summary views the experiments and examples consume. The
// drain loop lives in internal/grid: the cluster only answers Busy and
// shuts its controller down on Quiesce.

// Submit routes one workload job to the appropriate scheduler now and
// returns its recorder handle; Rec.JobID renders the job's ID
// ("<seq>.<fqdn>" for PBS, "W<id>" for Windows HPC).
func (c *Cluster) Submit(j workload.Job) (int, error) {
	if err := j.Validate(); err != nil {
		return -1, err
	}
	switch j.OS {
	case osid.Linux:
		pj, err := c.PBS.Qsub(pbs.SubmitRequest{
			Name:    j.App,
			Owner:   c.owner(j.Owner).pbs,
			Nodes:   j.Nodes,
			PPN:     j.PPN,
			Runtime: j.Runtime,
			Rerun:   true, // campus jobs restart if a node is lost
		})
		if err != nil {
			return -1, err
		}
		return c.track(&c.pbsJobs, pj.SeqNo(), j), nil
	case osid.Windows:
		spec := winhpc.JobSpec{
			Name:    j.App,
			Owner:   c.owner(j.Owner).win,
			Runtime: j.Runtime,
			Rerun:   true,
		}
		if j.PPN >= c.cfg.CoresPerNode {
			spec.Unit = winhpc.UnitNode
			spec.Count = j.Nodes
		} else {
			spec.Unit = winhpc.UnitCore
			spec.Count = j.CPUs()
		}
		wj, err := c.Win.SubmitJob(spec)
		if err != nil {
			return -1, err
		}
		return c.track(&c.winJobs, wj.ID(), j), nil
	default:
		return -1, fmt.Errorf("cluster: job %q has no valid OS", j.App)
	}
}

// owner holds one trace user's owner names on the two head nodes.
type owner struct{ pbs, win string }

// owner returns user u's owner names, "u@<fqdn>" and `HPC\u`, built
// on u's first job.
func (c *Cluster) owner(u string) owner {
	o, ok := c.owners[u]
	if !ok {
		if c.owners == nil {
			c.owners = make(map[string]owner)
		}
		o = owner{pbs: u + "@" + c.PBS.Name(), win: "HPC\\" + u}
		c.owners[u] = o
	}
	return o
}

// track books workload job j, submitted as scheduler job number n: it
// gets a recorder handle, bound to n in the scheduler's handle table,
// and returns it.
func (c *Cluster) track(tab *[]int32, n int, j workload.Job) int {
	h := c.Rec.JobSubmitted(n, j.OS, j.App, j.CPUs())
	*tab = bind(*tab, n, h)
	c.arrived[j.OS] += j.CPUs()
	return h
}

// Reserve sizes the job bookkeeping for the workload jobs about to be
// submitted here, linux and windows per side: the recorder's rows and
// each scheduler's handle table (switch jobs the controller submits
// still grow the latter by append).
func (c *Cluster) Reserve(linux, windows int) {
	c.Rec.Reserve(linux + windows)
	c.pbsJobs = slices.Grow(c.pbsJobs, linux)
	c.winJobs = slices.Grow(c.winJobs, windows)
}

// RecordSubmitFailure books a workload job that was routed here and
// that the scheduler refused (err, from Submit): it surfaces in
// Summary.SubmitFailures and is logged, so a run that "drains cleanly"
// cannot silently lose jobs.
func (c *Cluster) RecordSubmitFailure(j workload.Job, err error) {
	c.Rec.SubmitFailed()
	c.logf("submit %s failed: %v", j.App, err)
}

// Busy reports outstanding work: unfinished jobs or switches in
// flight.
func (c *Cluster) Busy() bool {
	return c.Rec.Unfinished() > 0 || c.SwitchingCount() > 0
}

// Quiesce stops the controller daemons once a run is over.
func (c *Cluster) Quiesce() {
	if c.Mgr != nil {
		c.Mgr.Stop()
	}
}

// Summary digests the run so far.
func (c *Cluster) Summary() metrics.Summary {
	return c.Rec.Summarise(c.cfg.Nodes)
}

// Snapshot is a point-in-time view for time-series plots (the case
// study's node-shift curve).
type Snapshot struct {
	At            time.Duration
	LinuxNodes    int
	WindowsNodes  int
	Switching     int
	Broken        int
	LinuxRunning  int
	LinuxQueued   int
	WindowsQueued int
	WindowsRun    int
}

// TakeSnapshot captures the current state from the schedulers'
// maintained census counters.
func (c *Cluster) TakeSnapshot() Snapshot {
	winSnap := c.Win.Snapshot()
	pbsStats := c.PBS.QueueStats()
	return Snapshot{
		At:            c.Eng.Now(),
		LinuxNodes:    c.NodesOn(osid.Linux),
		WindowsNodes:  c.NodesOn(osid.Windows),
		Switching:     c.SwitchingCount(),
		Broken:        c.BrokenCount(),
		LinuxRunning:  pbsStats.Running,
		LinuxQueued:   pbsStats.Queued,
		WindowsQueued: winSnap.Queued,
		WindowsRun:    winSnap.Running,
	}
}
