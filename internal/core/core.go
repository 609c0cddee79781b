// Package core is the dualboot-oscar middleware façade: it assembles
// a hybrid cluster, drives a workload through it and digests the
// outcome. The experiments in internal/experiments, the qsim CLI and
// the examples all run through this package; the repository root
// package re-exports it as the public API.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/workload"
)

// Topology describes the fabric a scenario runs on. With no members
// it is a single cluster (Scenario.Cluster, the classic path); with
// members the run assembles a campus grid on one shared clock and the
// trace flows through the routing policy.
type Topology struct {
	// Routing selects the campus router's placement policy.
	Routing grid.RoutingPolicy
	// Members configures the grid's clusters; empty means single.
	Members []grid.MemberSpec
}

// IsGrid reports whether the topology is a multi-cluster fabric.
func (t Topology) IsGrid() bool { return len(t.Members) > 0 }

// Scenario is one configured run: a cluster organisation (or a grid
// of them) plus a job trace.
type Scenario struct {
	Name    string
	Cluster cluster.Config
	Trace   workload.Trace
	// Horizon bounds virtual time (default: trace span + 48h).
	Horizon time.Duration
	// SampleInterval, when positive, records a node-count time series
	// (single-cluster topologies only).
	SampleInterval time.Duration
	// Topology, when it has members, runs the trace across a campus
	// grid instead of Scenario.Cluster.
	Topology Topology
	// SchedPolicy selects both head schedulers' queue discipline for
	// the whole run — a treatment axis applied uniformly to
	// Scenario.Cluster and to every topology member. The zero value
	// (fcfs) leaves the configs' own setting untouched, so a
	// backfill cluster.Config still runs backfill.
	SchedPolicy cluster.SchedPolicy
	// Latency overrides every cluster's boot-latency model — a
	// treatment axis applied uniformly to Scenario.Cluster and to
	// every topology member (the sweep switchlat axis acts through
	// it). Nil keeps each config's own model. The model is read-only
	// during a run, so members may share the pointer.
	Latency *bootmgr.LatencyModel
}

// MemberResult is one grid member's share of a topology run.
type MemberResult struct {
	Name        string
	Mode        cluster.Mode
	Routed      int // jobs the campus router placed here
	BrokenNodes int
	Summary     metrics.Summary
}

// Result is a completed scenario. For grid topologies Summary is the
// fabric-wide aggregate and Members holds the per-member digests.
type Result struct {
	Name           string
	Mode           cluster.Mode
	Summary        metrics.Summary
	Series         []cluster.Snapshot
	ControlActions int
	Controller     controller.Stats
	// Thrash counts switch decisions the controller reversed within
	// one dwell window (controller.ThrashCount) — the anti-flap number
	// the policy experiments rank on. Grid runs sum their members.
	Thrash      int
	BrokenNodes int
	Events      []cluster.Event
	AppStats    []metrics.AppStat
	// Members carries per-member summaries for grid topologies.
	Members []MemberResult
	// Dropped counts jobs no grid member could serve.
	Dropped int
	// EventsRun is the engine's callback count — the run's wakeups.
	EventsRun uint64
}

// Run executes a scenario from time zero.
func Run(sc Scenario) (Result, error) {
	if err := sc.Trace.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = sc.Trace.Span() + 48*time.Hour
	}
	if sc.Topology.IsGrid() {
		return runGrid(sc, horizon)
	}
	if sc.SchedPolicy != cluster.SchedFCFS {
		sc.Cluster.SchedPolicy = sc.SchedPolicy
	}
	if sc.Latency != nil {
		sc.Cluster.Latency = sc.Latency
	}
	c, err := cluster.New(sc.Cluster)
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: sc.Name, Mode: c.Config().Mode}
	if sc.SampleInterval > 0 {
		series, sum, err := c.SampleSeries(sc.Trace, sc.SampleInterval, horizon)
		if err != nil {
			return Result{}, err
		}
		res.Series = series
		res.Summary = sum
	} else {
		sum, err := c.RunTrace(sc.Trace, horizon)
		if err != nil {
			return Result{}, err
		}
		res.Summary = sum
	}
	res.ControlActions = c.ControlActions()
	res.BrokenNodes = c.BrokenCount()
	res.Events = c.Events()
	res.AppStats = c.Rec.AppStats()
	res.EventsRun = c.Eng.EventsRun()
	if c.Mgr != nil {
		res.Controller = c.Mgr.Stats()
		res.Thrash = c.Mgr.Thrash()
	}
	return res, nil
}

// runGrid executes a scenario across a campus fabric: every member on
// one clock, the trace flowing through the routing policy, the whole
// grid drained by the shared quiescence driver.
func runGrid(sc Scenario, horizon time.Duration) (Result, error) {
	if sc.SampleInterval > 0 {
		return Result{}, fmt.Errorf("core: time-series sampling is not supported on grid topologies")
	}
	members := sc.Topology.Members
	if sc.SchedPolicy != cluster.SchedFCFS || sc.Latency != nil {
		// Copy before overriding: the caller's member specs must not be
		// written through.
		members = append([]grid.MemberSpec(nil), members...)
		for i := range members {
			if sc.SchedPolicy != cluster.SchedFCFS {
				members[i].Config.SchedPolicy = sc.SchedPolicy
			}
			if sc.Latency != nil {
				members[i].Config.Latency = sc.Latency
			}
		}
	}
	g, err := grid.New(sc.Topology.Routing, members)
	if err != nil {
		return Result{}, err
	}
	if err := g.ScheduleTrace(sc.Trace); err != nil {
		return Result{}, err
	}
	g.RunUntilDrained(horizon)

	res := Result{Name: sc.Name, Mode: sc.Cluster.Mode, Dropped: g.Dropped()}
	routed := g.RoutedCounts()
	var sums []metrics.Summary
	for _, m := range g.Members() {
		s := m.Cluster.Summary()
		sums = append(sums, s)
		res.Members = append(res.Members, MemberResult{
			Name:        m.Name,
			Mode:        m.Cluster.Config().Mode,
			Routed:      routed[m.Name],
			BrokenNodes: m.Cluster.BrokenCount(),
			Summary:     s,
		})
		res.ControlActions += m.Cluster.ControlActions()
		res.BrokenNodes += m.Cluster.BrokenCount()
		if m.Cluster.Mgr != nil {
			res.Thrash += m.Cluster.Mgr.Thrash()
		}
		for _, e := range m.Cluster.Events() {
			res.Events = append(res.Events, cluster.Event{At: e.At, What: m.Name + ": " + e.What})
		}
	}
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].At < res.Events[j].At })
	res.Summary = metrics.Aggregate(sums)
	res.EventsRun = g.Eng.EventsRun()
	return res, nil
}

// CompareModes runs the same trace through several cluster
// organisations (fresh cluster per mode, identical seed) and returns
// results in mode order — the harness behind the bi-stable vs
// mono-stable vs static comparisons.
func CompareModes(modes []cluster.Mode, base cluster.Config, trace workload.Trace, horizon time.Duration) ([]Result, error) {
	var out []Result
	for _, m := range modes {
		cfg := base
		cfg.Mode = m
		r, err := Run(Scenario{
			Name:    m.String(),
			Cluster: cfg,
			Trace:   trace,
			Horizon: horizon,
		})
		if err != nil {
			return nil, fmt.Errorf("core: mode %v: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ResultRow renders a result as a table row for the experiment
// harness: mode, utilisation, per-OS waits, switches, completion.
func ResultRow(r Result) []string {
	s := r.Summary
	completed := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
	submitted := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
	return []string{
		r.Name,
		metrics.Pct(s.Utilisation),
		metrics.Dur(s.MeanWait[osid.Linux]),
		metrics.Dur(s.MeanWait[osid.Windows]),
		fmt.Sprintf("%d", s.Switches),
		metrics.Dur(s.MeanSwitch),
		fmt.Sprintf("%d/%d", completed, submitted),
	}
}

// ResultHeader matches ResultRow.
func ResultHeader() []string {
	return []string{"scenario", "util", "wait(L)", "wait(W)", "switches", "mean-switch", "done/subm"}
}

// ComparisonTable renders results for display.
func ComparisonTable(results []Result) string {
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = ResultRow(r)
	}
	return metrics.Table(ResultHeader(), rows)
}
