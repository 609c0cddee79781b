// Package experiments is the one definition of the paper's
// evaluation: every table and figure, regenerated as a text table.
// The cmd/benchtab binary prints them and records their cost, the root
// package's BenchmarkExperiments times them, and EXPERIMENTS.md
// records one run.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string // "E1", "A3", ...
	Title  string // paper artifact being reproduced
	Header []string
	Rows   [][]string
	Notes  string // expected shape, caveats, substitutions
	// EventsRun totals the simulation wakeups (engine callbacks)
	// behind the table — zero for pure-artifact experiments. The
	// cmd/benchtab BENCH_sim.json perf record tracks it per
	// experiment.
	EventsRun uint64
}

// Render formats the experiment for terminal output.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	b.WriteString(metrics.Table(t.Header, t.Rows))
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Runner produces one experiment table.
type Runner struct {
	ID  string
	Run func() (Table, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", E1TableI},
		{"E2", E2GrubArtifacts},
		{"E3", E3SwitchJob},
		{"E4", E4DetectorWire},
		{"E5", E5PBSText},
		{"E6", E6Diskpart},
		{"E7", E7IdeDisk},
		{"E8", E8ControlLoop},
		{"E9", E9SwitchLatency},
		{"E10", E10BiVsMono},
		{"E11", E11MatlabGA},
		{"E12", E12MixSweep},
		{"E13", rankedTable("E13", "e13_sweep_modes.json",
			"sweep: cluster mode vs offered load, ranked by utilisation",
			"deterministic per-cell seeds, identical table for any worker count")},
		{"E14", E14RoutingPolicies},
		{"E15", E15PolicySuite},
		{"E16", E16SchedPolicies},
		{"E17", rankedTable("E17", "e17_metro_scale.json",
			"metro scale: 2500-node hybrid campus, FCFS vs EASY backfill",
			"~12k submissions per 500jph cell; deterministic per-cell seeds, identical table for any worker count")},
		{"E18", rankedTable("E18", "e18_city_scale.json",
			"city scale: 10000 nodes, ~1M submissions, saturating backlog",
			"offered load exceeds capacity by design — the tier pins worst-case backlog behaviour, not a balanced operating point")},
		// E19 replays specs/pwa_sample_1k.swf, a synthetic ~1000-job
		// log in Parallel Workloads Archive format: ~60% offered load
		// on a 16-node (64-processor) machine with occasional wide
		// head-blockers, so FCFS and EASY backfill separate cleanly.
		// Its golden pins the whole SWF path: header parsing, sentinel
		// fallbacks, processor folding and platform assignment.
		{"E19", rankedTable("E19", "e19_swf_replay.json",
			"SWF replay: committed PWA-format log, FCFS vs EASY backfill",
			"~1k jobs over ~6.5 days at ~60% offered load; platform split hashed per job (30% Windows)")},
		{"E20", E20MetroPolicies},
		{"A1", A1CycleInterval},
		{"A2", A2Policies},
		{"A3", A3SwitchCost},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}
