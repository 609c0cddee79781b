// Package core is the dualboot-oscar middleware façade: it assembles
// a hybrid cluster, drives a workload through it and digests the
// outcome. The experiments in internal/experiments, the qsim CLI and
// the examples all run through this package; the repository root
// package re-exports it as the public API.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Topology describes the fabric a scenario runs on. With no members
// it is a single cluster (Scenario.Cluster, run as a one-member grid);
// with members the run assembles a campus grid of them on one shared
// clock. Either way the trace flows through the routing policy.
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
	// SampleInterval, when positive, records a node-count time series,
	// summed over the members of a grid topology.
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
	// Dropped counts jobs whose OS no member can serve (see grid.Route).
	Dropped int
	// EventsRun is the engine's callback count — the run's wakeups.
	EventsRun uint64
}

// Run executes a scenario from time zero on a campus grid. A single
// topology is a one-member grid whose member has no name; its Result
// takes the Summary, AppStats, Controller stats and event log from
// that member and leaves Members nil.
func Run(sc Scenario) (Result, error) { return RunOn(simtime.NewEngine(), sc) }

// RunOn is Run on the caller's engine, which must be new or Reset.
// The Result holds nothing of the engine, so the caller may Reset it
// for the next scenario as soon as RunOn returns.
func RunOn(eng *simtime.Engine, sc Scenario) (Result, error) {
	if err := sc.Trace.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = sc.Trace.Span() + 48*time.Hour
	}
	specs := []grid.MemberSpec{{Config: sc.Cluster}}
	if sc.Topology.IsGrid() {
		// Copied before overriding: the caller's specs are not written through.
		specs = slices.Clone(sc.Topology.Members)
	}
	for i := range specs {
		if sc.SchedPolicy != cluster.SchedFCFS {
			specs[i].Config.SchedPolicy = sc.SchedPolicy
		}
		if sc.Latency != nil {
			specs[i].Config.Latency = sc.Latency
		}
	}
	g, err := grid.NewOn(eng, sc.Topology.Routing, specs)
	if err != nil {
		return Result{}, err
	}
	if err := g.ScheduleTrace(sc.Trace); err != nil {
		return Result{}, err
	}
	var series []cluster.Snapshot
	if sc.SampleInterval > 0 {
		// The drain stops on the grid's Busy predicate, so an exhausted
		// workload ends the run with samples still scheduled.
		// Preallocated for the horizon, the series is not the allocation
		// hot spot of a sampled run.
		series = make([]cluster.Snapshot, 0, horizon/sc.SampleInterval+2)
		tk := g.Eng.Every(sc.SampleInterval, func() {
			series = append(series, g.Snapshot())
		})
		defer tk.Stop()
	}
	g.RunUntilDrained(horizon)
	if sc.SampleInterval > 0 && (len(series) == 0 || series[len(series)-1].At != g.Eng.Now()) {
		series = append(series, g.Snapshot()) // close the series at the stop instant
	}

	res := Result{Name: sc.Name, Mode: sc.Cluster.Mode, Series: series, Dropped: g.Dropped(), EventsRun: g.Eng.EventsRun()}
	members := g.Members()
	for _, m := range members {
		res.ControlActions += m.Cluster.ControlActions()
		res.BrokenNodes += m.Cluster.BrokenCount()
		if m.Cluster.Mgr != nil {
			res.Thrash += m.Cluster.Mgr.Thrash()
		}
	}
	if !sc.Topology.IsGrid() {
		c := members[0].Cluster
		res.Summary = c.Summary()
		res.Events = c.Events()
		res.AppStats = c.Rec.AppStats()
		if c.Mgr != nil {
			res.Controller = c.Mgr.Stats()
		}
		return res, nil
	}
	routed := g.RoutedCounts()
	var sums []metrics.Summary
	for _, m := range members {
		s := m.Cluster.Summary()
		sums = append(sums, s)
		res.Members = append(res.Members, MemberResult{
			Name:        m.Name,
			Mode:        m.Cluster.Config().Mode,
			Routed:      routed[m.Name],
			BrokenNodes: m.Cluster.BrokenCount(),
			Summary:     s,
		})
		for _, e := range m.Cluster.Events() {
			res.Events = append(res.Events, cluster.Event{At: e.At, What: m.Name + ": " + e.What})
		}
	}
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].At < res.Events[j].At })
	res.Summary = metrics.Aggregate(sums)
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
