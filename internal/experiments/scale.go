// Scale tiers: the paper's clusters are 16 nodes; E17, E18 and E20 pin
// the simulator at metro (~2.5k nodes) and city (~10k nodes, ~1M
// submissions) scale. They exist to keep the hot paths honest — the
// indexed event calendar, the incremental scheduler ledgers, and the
// batched metrics integration are exactly the code these tiers stress
// — and their EventsRun totals ride in BENCH_sim.json so the bench
// gate catches both perf and determinism drift at sizes the E1–E16
// tables never reach.
//
//   - E17 (specs/e17_metro_scale.json): a 2500-node hybrid campus under
//     two offered loads with both head-scheduler disciplines. Small
//     enough for CI, big enough that an O(backlog) or O(nodes)
//     regression in a scheduling pass shows in the bench gate.
//   - E18 (specs/e18_city_scale.json): one 10000-node cell fed a
//     2000-jobs/hour Poisson stream for 500 hours — just under a
//     million submissions and a backlog that grows without bound, so
//     the queue ledgers, the head cursor and the calendar queue see
//     their worst case, and mean waits are large enough to overflow a
//     naive nanosecond accumulator (the metrics package splits seconds
//     for exactly this tier).
//   - E20 (specs/e20_metro_policies.json): E17's backfill cells, same
//     base seed, under every controller policy.
package experiments

// E20MetroPolicies ranks the controller policies on the metro tier,
// per offered load, by rankPolicies. E17 runs only the paper's fcfs
// controller, whose stuck rule (no job running and at least one
// queued) never fires on a 2500-node side that always has something
// running; the adaptive rules switch nodes here by the thousand, so
// this is where the paper's switching mechanism runs at scale.
func E20MetroPolicies() (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "metro policy tier: 2500-node EASY backfill campus under every controller policy",
		Header: []string{"trace", "policy", "util", "switches", "thrash", "wait(L)", "wait(W)", "makespan", "done/subm"},
		Notes:  "the paper's fcfs rule never switches at this scale, since each side always has a job running; the adaptive rules move nodes to the backlogged side",
	}
	return rankPolicies(t, "e20_metro_policies.json")
}
