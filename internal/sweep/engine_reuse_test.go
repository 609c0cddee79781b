package sweep

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// At workers 1 every cell of a sweep runs on one engine, reset between
// cells. Each result must equal a run of the same scenario on a fresh
// engine, wakeup count and event log included: a Reset that leaves the
// clock, the callback count, the calendar window or a queued event of
// the cell before shows up here.
func TestReusedEngineMatchesFresh(t *testing.T) {
	var policies []PolicySpec
	for _, name := range []string{"fcfs", "hysteresis", "predictive"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	var topologies []TopologySpec
	for _, name := range []string{"single", "campus"} {
		tp, err := TopologyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		topologies = append(topologies, tp)
	}
	g := Grid{
		Modes:         []cluster.Mode{cluster.HybridV1, cluster.HybridV2, cluster.Static},
		Policies:      policies,
		SchedPolicies: []cluster.SchedPolicy{cluster.SchedFCFS, cluster.SchedBackfill},
		NodeCounts:    []int{8},
		Traces:        []TraceSpec{{JobsPerHour: 4, WindowsFrac: 0.5, Duration: 8 * time.Hour}},
		FailureRates:  []float64{0, 0.3},
		Topologies:    topologies,
		BaseSeed:      32,
		Horizon:       48 * time.Hour,
	}
	out, err := Run(Config{Grid: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	broken, switches := 0, 0
	for _, r := range out.Results {
		broken += r.Res.BrokenNodes
		switches += r.Res.Summary.Switches
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Cell.Name(), r.Err)
		}
		sc, err := r.Cell.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Res.EventsRun == 0 {
			t.Fatalf("cell %s ran no events", r.Cell.Name())
		}
		if !reflect.DeepEqual(r.Res, fresh) {
			t.Errorf("cell %s on a reused engine: %d events, %d log lines; on a fresh engine: %d events, %d log lines",
				r.Cell.Name(), r.Res.EventsRun, len(r.Res.Events), fresh.EventsRun, len(fresh.Events))
		}
	}
	if len(out.Results) != 72 || broken == 0 || switches == 0 {
		t.Fatalf("%d cells (want 72), %d broken nodes, %d switches: the grid no longer covers failures and switching",
			len(out.Results), broken, switches)
	}
}
