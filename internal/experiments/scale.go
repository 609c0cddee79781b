// Scale tiers: the paper's clusters are 16 nodes; E17 and E18 pin the
// simulator at metro (~2.5k nodes) and city (~10k nodes, ~1M
// submissions) scale. They exist to keep the hot paths honest — the
// indexed event calendar, the incremental scheduler ledgers, and the
// batched metrics integration are exactly the code these tiers stress
// — and their EventsRun totals ride in BENCH_sim.json so the bench
// gate catches both perf and determinism drift at sizes the E1–E16
// tables never reach.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sweep"
)

// E17Grid is the metro tier: a 2500-node hybrid campus under two
// offered loads, with both head-scheduler disciplines. Small enough
// for CI (a few seconds), big enough that an O(backlog) or O(nodes)
// regression in a scheduling pass is visible in the bench gate.
// Exported so the grid travels as a committed spec document (see
// SpecFiles) and CI can replay it.
func E17Grid() sweep.Grid {
	return sweep.Grid{
		Modes:         []cluster.Mode{cluster.HybridV2},
		SchedPolicies: []cluster.SchedPolicy{cluster.SchedFCFS, cluster.SchedBackfill},
		NodeCounts:    []int{2500},
		Traces: []sweep.TraceSpec{
			{JobsPerHour: 250, WindowsFrac: 0.3, Duration: 24 * time.Hour},
			{JobsPerHour: 500, WindowsFrac: 0.3, Duration: 24 * time.Hour},
		},
		BaseSeed: 1700,
		Cycle:    5 * time.Minute,
	}
}

// E17MetroScale runs the metro tier through the sweep subsystem and
// ranks the cells — the same table shape as E13, three orders of
// magnitude up.
func E17MetroScale() (Table, error) {
	g := E17Grid()
	out, err := sweep.Run(sweep.Config{Grid: g})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:        "E17",
		Title:     "metro scale: 2500-node hybrid campus, FCFS vs EASY backfill",
		Header:    sweep.Header(),
		EventsRun: sumEvents(out),
		Notes: fmt.Sprintf("%s; ~12k submissions per 500jph cell; deterministic per-cell seeds, identical table for any worker count",
			g.Describe()),
	}
	for i, r := range out.Ranked() {
		if r.Err != nil {
			return t, r.Err
		}
		t.Rows = append(t.Rows, sweep.Row(i+1, r))
	}
	return t, nil
}

// E20Grid is the metro policy tier: E17's two backfill cells under
// every controller policy. E17 runs only the paper's fcfs controller,
// whose stuck rule (no job running and at least one queued) never
// fires on a 2500-node side that always has something running; the
// adaptive rules switch nodes here by the thousand, so this is where
// the paper's switching mechanism runs at scale. Same base seed as
// E17, so the fcfs cells are E17's backfill cells.
func E20Grid() (sweep.Grid, error) {
	g := E17Grid()
	g.SchedPolicies = []cluster.SchedPolicy{cluster.SchedBackfill}
	for _, name := range []string{"fcfs", "threshold", "hysteresis", "predictive", "fairshare"} {
		p, err := sweep.PolicyByName(name)
		if err != nil {
			return sweep.Grid{}, err
		}
		g.Policies = append(g.Policies, p)
	}
	return g, nil
}

// E20MetroPolicies ranks the controller policies on the metro tier,
// per offered load, by rankPolicies.
func E20MetroPolicies() (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "metro policy tier: 2500-node EASY backfill campus under every controller policy",
		Header: []string{"trace", "policy", "util", "switches", "thrash", "wait(L)", "wait(W)", "makespan", "done/subm"},
		Notes:  "the paper's fcfs rule never switches at this scale, since each side always has a job running; the adaptive rules move nodes to the backlogged side",
	}
	g, err := E20Grid()
	if err != nil {
		return t, err
	}
	return rankPolicies(t, g)
}

// E18Grid is the city tier: one 10000-node hybrid cell fed a
// 2000-jobs/hour Poisson stream for 500 hours — just under a million
// submissions, a saturating backlog, and ~3.2M simulation events. One
// cell, because the point is the absolute size: this is the workload
// the flat event queue and the rescan-everything scheduler could not
// finish in useful time.
func E18Grid() sweep.Grid {
	return sweep.Grid{
		Modes:      []cluster.Mode{cluster.HybridV2},
		NodeCounts: []int{10000},
		Traces: []sweep.TraceSpec{
			{JobsPerHour: 2000, WindowsFrac: 0.3, Duration: 500 * time.Hour},
		},
		BaseSeed: 1800,
		Cycle:    5 * time.Minute,
	}
}

// E18CityScale runs the city tier. Deliberately over-saturated: the
// backlog grows without bound, so the queue ledgers, the head cursor,
// and the calendar queue all see their worst case, and mean waits are
// large enough to overflow a naive nanosecond accumulator (the
// metrics package splits seconds for exactly this tier).
func E18CityScale() (Table, error) {
	g := E18Grid()
	out, err := sweep.Run(sweep.Config{Grid: g})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:        "E18",
		Title:     "city scale: 10000 nodes, ~1M submissions, saturating backlog",
		Header:    sweep.Header(),
		EventsRun: sumEvents(out),
		Notes: fmt.Sprintf("%s; offered load exceeds capacity by design — the tier pins worst-case backlog behaviour, not a balanced operating point",
			g.Describe()),
	}
	for i, r := range out.Ranked() {
		if r.Err != nil {
			return t, r.Err
		}
		t.Rows = append(t.Rows, sweep.Row(i+1, r))
	}
	return t, nil
}
