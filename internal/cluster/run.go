package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/winhpc"
	"repro/internal/workload"
)

// This file runs workload traces through the cluster and exposes the
// snapshot/summary views the experiments and examples consume. The
// drain loop lives in internal/driver: the cluster only answers Busy
// and shuts its controller down on Quiesce.

// Hooks observe cluster lifecycle transitions. They fire inside engine
// callbacks, so handlers run on the deterministic virtual clock and
// must not block. The grid layer uses them to track per-member
// completions without polling; tests and reactive controllers can
// subscribe the same way.
type Hooks struct {
	// JobCompleted fires when a tracked workload job leaves the
	// system; completed is false when the job died (walltime kill,
	// cancellation). h is the job's recorder handle: Rec.JobID(h)
	// renders its ID, which nothing builds unless asked.
	JobCompleted func(h int, completed bool)
	// SwitchLanded fires when an OS switch (or maintenance reboot)
	// ends: os is the side the node came up on (None for a boot-chain
	// casualty) and ok whether it matched the intent.
	SwitchLanded func(node string, os osid.OS, ok bool)
	// SubmitFailed fires when a trace submission is rejected by the
	// target scheduler (e.g. a job too wide for the machine).
	SubmitFailed func(j workload.Job, err error)
}

// AddHooks subscribes an observer. Multiple observers fire in
// registration order.
func (c *Cluster) AddHooks(h Hooks) { c.hooks = append(c.hooks, h) }

func (c *Cluster) notifyJobCompleted(job int, completed bool) {
	for _, h := range c.hooks {
		if h.JobCompleted != nil {
			h.JobCompleted(job, completed)
		}
	}
}

func (c *Cluster) notifySwitchLanded(node string, os osid.OS, ok bool) {
	for _, h := range c.hooks {
		if h.SwitchLanded != nil {
			h.SwitchLanded(node, os, ok)
		}
	}
}

func (c *Cluster) notifySubmitFailed(j workload.Job, err error) {
	for _, h := range c.hooks {
		if h.SubmitFailed != nil {
			h.SubmitFailed(j, err)
		}
	}
}

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
	for len(c.awaiting) <= h {
		c.awaiting = append(c.awaiting, false)
	}
	c.awaiting[h] = true
	c.arrived[j.OS] += j.CPUs()
	c.unfinished++
	return h
}

// ScheduleTrace arranges every job in the trace for submission at its
// timestamp. A submission the scheduler rejects is counted — it
// surfaces in Summary.SubmitFailures and fires the SubmitFailed hook —
// so a run that "drains cleanly" cannot silently lose jobs. The
// arrivals are an engine Chain: one is queued at a time, in the order
// scheduling them all now would give. The cluster keeps a reference to
// trace, so the caller must not modify it during the run.
func (c *Cluster) ScheduleTrace(trace workload.Trace) error {
	if err := trace.Validate(); err != nil {
		return err
	}
	c.reserve(trace)
	c.toSubmit += len(trace)
	c.Eng.Chain(len(trace), func(i int) time.Duration { return trace[i].At }, func(i int) {
		c.toSubmit--
		j := trace[i]
		if _, err := c.Submit(j); err != nil {
			c.Rec.SubmitFailed()
			c.notifySubmitFailed(j, err)
			c.logf("submit %s failed: %v", j.App, err)
		}
	})
	return nil
}

// reserve sizes the job bookkeeping for a trace once: the recorder's
// rows, the tracked-job flags and each scheduler's handle table (switch
// jobs the controller submits still grow the latter by append).
func (c *Cluster) reserve(trace workload.Trace) {
	c.Rec.Reserve(len(trace))
	c.awaiting = slices.Grow(c.awaiting, len(trace))
	linux := 0
	for i := range trace {
		if trace[i].OS == osid.Linux {
			linux++
		}
	}
	c.pbsJobs = slices.Grow(c.pbsJobs, linux)
	c.winJobs = slices.Grow(c.winJobs, len(trace)-linux)
}

// Unfinished reports workload jobs not yet completed.
func (c *Cluster) Unfinished() int { return c.unfinished }

// PendingSubmissions reports trace jobs scheduled but not yet
// submitted.
func (c *Cluster) PendingSubmissions() int { return c.toSubmit }

// Busy implements driver.Workload: outstanding trace submissions,
// unfinished jobs, or switches in flight.
func (c *Cluster) Busy() bool {
	return c.toSubmit > 0 || c.unfinished > 0 || c.SwitchingCount() > 0
}

// Quiesce implements driver.Workload: stop the controller daemons.
func (c *Cluster) Quiesce() {
	if c.Mgr != nil {
		c.Mgr.Stop()
	}
}

// RunTrace schedules a trace and advances virtual time until every
// workload job completes, no switches are in flight, or maxHorizon is
// reached. It returns the metrics summary.
func (c *Cluster) RunTrace(trace workload.Trace, maxHorizon time.Duration) (metrics.Summary, error) {
	if err := c.ScheduleTrace(trace); err != nil {
		return metrics.Summary{}, err
	}
	c.RunUntilDrained(maxHorizon)
	return c.Summary(), nil
}

// RunUntilDrained advances time on the shared quiescence driver: the
// engine hops event-to-event and stops at the exact instant the
// cluster goes quiet (the controller's background ticker never keeps
// the run alive). A wedged cluster — a switch that never lands — rides
// the clock to the horizon, exactly as before, just without the
// fixed-step polling.
func (c *Cluster) RunUntilDrained(maxHorizon time.Duration) {
	driver.Drain(c.Eng, maxHorizon, c)
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

// SampleSeries runs a trace while recording snapshots every interval,
// returning the series and the final summary. Sampling rides a
// background ticker, so an exhausted workload stops the run even with
// samples still scheduled; a final snapshot at the stop instant closes
// the series.
func (c *Cluster) SampleSeries(trace workload.Trace, interval, horizon time.Duration) ([]Snapshot, metrics.Summary, error) {
	if err := c.ScheduleTrace(trace); err != nil {
		return nil, metrics.Summary{}, err
	}
	// Preallocate for the full horizon: series storage must not be the
	// allocation hot spot of a sampled run.
	series := make([]Snapshot, 0, horizon/interval+2)
	tk := c.Eng.EveryBackground(interval, func() {
		series = append(series, c.TakeSnapshot())
	})
	driver.Drain(c.Eng, horizon, c)
	tk.Stop()
	if len(series) == 0 || series[len(series)-1].At != c.Eng.Now() {
		series = append(series, c.TakeSnapshot())
	}
	return series, c.Summary(), nil
}
