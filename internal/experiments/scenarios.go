package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sumEvents totals the wakeups of a sweep outcome for Table.EventsRun.
func sumEvents(out *sweep.Outcome) uint64 {
	var n uint64
	for _, r := range out.Results {
		n += r.Res.EventsRun
	}
	return n
}

// wideBurst is the canonical stuck-queue scenario: one wide Windows
// job against an all-Linux cluster.
func wideBurst() workload.Trace {
	return workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 1, Gap: time.Minute, App: "ANSYS FLUENT",
		OS: osid.Windows, Nodes: 4, PPN: 4, Runtime: time.Hour, Owner: "cfd",
	})
}

// alternating is the sweep's burst trace at 4 jobs/h over a day:
// four Windows render bursts over a Linux background. The synthetic
// trace kinds cannot fail to build, so the error is always nil.
func alternating(seed int64) workload.Trace {
	tr, _ := sweep.TraceSpec{Kind: sweep.TraceBurst, JobsPerHour: 4}.Build(seed)
	return tr
}

// E8ControlLoop compares the v1 and v2 control loops on the same
// stuck-queue scenario.
func E8ControlLoop() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "Figures 1/11–13 control loop: v1 FAT vs v2 per-MAC vs v2 flag",
		Header: []string{"mechanism", "switches", "control-actions", "win-wait", "completed"},
		Notes:  "v1 edits one FAT file per node; the Figure-12 per-MAC variant writes one menu per node; the final flag design (Figure 13) sets it once per direction change",
	}
	variants := []struct {
		name string
		cfg  cluster.Config
	}{
		{"v1 (FAT file)", cluster.Config{Mode: cluster.HybridV1, InitialLinux: 16, Cycle: 5 * time.Minute}},
		{"v2 per-MAC (Fig 12)", cluster.Config{Mode: cluster.HybridV2, PerMACBoot: true, InitialLinux: 16, Cycle: 5 * time.Minute}},
		{"v2 flag (Fig 13)", cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute}},
	}
	for _, v := range variants {
		res, err := core.Run(core.Scenario{Name: v.name, Cluster: v.cfg, Trace: wideBurst()})
		if err != nil {
			return t, err
		}
		t.EventsRun += res.EventsRun
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%d", res.Summary.Switches),
			fmt.Sprintf("%d", res.ControlActions),
			metrics.Dur(res.Summary.MeanWait[osid.Windows]),
			fmt.Sprintf("%d", res.Summary.JobsCompleted[osid.Windows]),
		})
	}
	return t, nil
}

// E9SwitchLatency measures the switch-latency distribution against the
// paper's five-minute bound. It errors when a switch fails to land or
// none is recorded.
func E9SwitchLatency() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "OS switch latency (paper: \"no more than five minutes\")",
		Header: []string{"version", "direction", "mean", "max", "samples", "under-5m"},
	}
	for _, mode := range []cluster.Mode{cluster.HybridV1, cluster.HybridV2} {
		c, err := cluster.New(cluster.Config{Mode: mode, Nodes: 16, InitialLinux: 16, Seed: 7})
		if err != nil {
			return t, err
		}
		target := osid.Windows
		for round := 0; round < 6; round++ {
			for n := 1; n <= 16; n++ {
				_ = c.ForceSwitch(fmt.Sprintf("enode%02d", n), target)
			}
			c.Eng.RunFor(time.Hour)
			target = target.Other()
		}
		t.EventsRun += c.Eng.EventsRun()
		switches := c.Rec.Switches()
		if len(switches) == 0 {
			return t, fmt.Errorf("experiments: E9: %s recorded no switch", mode)
		}
		byDir := map[osid.OS][]time.Duration{}
		for _, sw := range switches {
			if !sw.OK {
				return t, fmt.Errorf("experiments: E9: %s switch failed: %+v", mode, sw)
			}
			byDir[sw.To] = append(byDir[sw.To], sw.Duration())
		}
		for _, dir := range []osid.OS{osid.Linux, osid.Windows} {
			samples := byDir[dir]
			var sum, max time.Duration
			for _, d := range samples {
				sum += d
				if d > max {
					max = d
				}
			}
			if len(samples) == 0 {
				continue
			}
			mean := sum / time.Duration(len(samples))
			t.Rows = append(t.Rows, []string{
				mode.String(), "-> " + dir.String(),
				metrics.Dur(mean), metrics.Dur(max),
				fmt.Sprintf("%d", len(samples)),
				fmt.Sprintf("%v", max <= 5*time.Minute),
			})
		}
	}
	return t, nil
}

// E10BiVsMono compares the bi-stable hybrid to the mono-stable
// one-scheduler baseline on recurring Windows bursts.
func E10BiVsMono() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "bi-stable vs mono-stable (§III-C, ref [5])",
		Header: core.ResultHeader(),
		Notes:  "bi-stable keeps a warm Windows pool: fewer reboots and faster Windows service",
	}
	results, err := core.CompareModes(
		[]cluster.Mode{cluster.HybridV2, cluster.MonoStable},
		cluster.Config{InitialLinux: 16, Cycle: 5 * time.Minute},
		alternating(42), 72*time.Hour)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		t.EventsRun += r.EventsRun
		t.Rows = append(t.Rows, core.ResultRow(r))
	}
	return t, nil
}

// E11MatlabGA reproduces the Eridani MATLAB-MDCS case study with a
// node-count time series. It errors when a GA job does not complete.
func E11MatlabGA() (Table, error) {
	trace := workload.MatlabGACase(7)
	res, err := core.Run(core.Scenario{
		Name:           "matlab-ga",
		Cluster:        cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute},
		Trace:          trace,
		Horizon:        48 * time.Hour,
		SampleInterval: time.Hour,
	})
	if err != nil {
		return Table{}, err
	}
	ga, done := trace.CountByOS()[osid.Windows], res.Summary.JobsCompleted[osid.Windows]
	if done < ga {
		return Table{}, fmt.Errorf("experiments: E11: %d of %d GA jobs completed", done, ga)
	}
	t := Table{
		ID:        "E11",
		EventsRun: res.EventsRun,
		Title:     "Eridani case study: MATLAB MDCS GA burst (§IV-B)",
		Header:    []string{"t", "linux-nodes", "win-nodes", "switching", "linQ", "winQ"},
		Notes: fmt.Sprintf("GA jobs completed: %d/%d; mean Windows wait %s; switches %d",
			done, ga,
			metrics.Dur(res.Summary.MeanWait[osid.Windows]),
			res.Summary.Switches),
	}
	for _, s := range res.Series {
		t.Rows = append(t.Rows, []string{
			metrics.Dur(s.At),
			fmt.Sprintf("%d", s.LinuxNodes),
			fmt.Sprintf("%d", s.WindowsNodes),
			fmt.Sprintf("%d", s.Switching),
			fmt.Sprintf("%d", s.LinuxQueued),
			fmt.Sprintf("%d", s.WindowsQueued),
		})
	}
	return t, nil
}

// E12MixSweep sweeps the Windows demand share over the phased
// wide-job workload: hybrid vs static utilisation. The mode × share
// grid fans out through the sweep subsystem — both modes of each share
// replay the identical trace (paired comparison), and the cells run
// concurrently.
func E12MixSweep() (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "utilisation: hybrid vs static split across demand mixes (§I)",
		Header: []string{"windows-share", "hybrid-util", "static-util", "hybrid-done", "static-done"},
		Notes:  "wide jobs exceed the 8-node static halves; the split strands them (Torque rejects as infeasible)",
	}
	out, err := runSpec("e12_mix_sweep.json")
	if err != nil {
		return t, err
	}
	t.EventsRun = sumEvents(out)
	for _, cells := range byTrace(out) {
		row, err := hybridVsStaticRow(cells)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// hybridVsStaticRow digests one trace shape's hybrid and static cells
// into an E12-style comparison row, led by the trace's Windows share.
// The completion denominator is the full trace length, not the
// submitted count: the static split's stranded wide jobs are rejected
// at submission (Torque deems them infeasible), and hiding them would
// erase exactly the effect the table demonstrates.
func hybridVsStaticRow(cells []sweep.CellResult) ([]string, error) {
	tr := cells[0].Cell.Trace
	pick := func(mode cluster.Mode) (sweep.CellResult, error) {
		for _, r := range cells {
			if r.Cell.Mode == mode {
				return r, r.Err
			}
		}
		return sweep.CellResult{}, fmt.Errorf("experiments: no %v cell for trace %s", mode, tr.Name)
	}
	h, err := pick(cluster.HybridV2)
	if err != nil {
		return nil, err
	}
	s, err := pick(cluster.Static)
	if err != nil {
		return nil, err
	}
	trace, err := h.Cell.Trace.Build(h.Cell.TraceSeed)
	if err != nil {
		return nil, err
	}
	traceLen := len(trace)
	total := func(m map[osid.OS]int) int { return m[osid.Linux] + m[osid.Windows] }
	return []string{
		metrics.Pct(tr.WindowsFrac),
		metrics.Pct(h.Res.Summary.Utilisation),
		metrics.Pct(s.Res.Summary.Utilisation),
		fmt.Sprintf("%d/%d", total(h.Res.Summary.JobsCompleted), traceLen),
		fmt.Sprintf("%d/%d", total(s.Res.Summary.JobsCompleted), traceLen),
	}, nil
}

// E15PolicySuite ranks the paper's deployed rule and the three
// adaptive extensions on the diurnal and burst traces — the repo's
// headline question ("when is hybrid switching worth it?") as a swept
// result, ranked by rankPolicies.
func E15PolicySuite() (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "adaptive OS-switching policies: thrash vs utilisation (§V \"adapt the rules\")",
		Header: []string{"trace", "policy", "util", "switches", "thrash", "wait(L)", "wait(W)", "makespan", "done/subm"},
		Notes:  "threshold chases every swing of the queue; hysteresis's dead band and dwell time buy the same service for fewer reboots; predictive only pays for backlog that outlives the switch latency",
	}
	return rankPolicies(t, "e15_policy_suite.json")
}

// rankPolicies runs the controller-policy document file and fills t
// with one row per cell, grouped by trace and ranked within each trace
// by utilisation, then fewest switches; the thrash column counts
// switches reversed within one dwell window (controller.ThrashCount),
// the reboots a calmer rule would not have paid for.
func rankPolicies(t Table, file string) (Table, error) {
	out, err := runSpec(file)
	if err != nil {
		return t, err
	}
	t.EventsRun = sumEvents(out)
	for _, cells := range byTrace(out) {
		// Rank within the trace: utilisation first, then fewest
		// switches, expansion order as the stable tie-break.
		sort.SliceStable(cells, func(i, j int) bool {
			si, sj := cells[i].Res.Summary, cells[j].Res.Summary
			if si.Utilisation != sj.Utilisation {
				return si.Utilisation > sj.Utilisation
			}
			return si.Switches < sj.Switches
		})
		for _, r := range cells {
			if r.Err != nil {
				return t, r.Err
			}
			s := r.Res.Summary
			done := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
			subm := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
			t.Rows = append(t.Rows, []string{
				r.Cell.Trace.Name,
				r.Cell.Policy.Name,
				metrics.Pct(s.Utilisation),
				fmt.Sprintf("%d", s.Switches),
				fmt.Sprintf("%d", r.Res.Thrash),
				metrics.Dur(s.MeanWait[osid.Linux]),
				metrics.Dur(s.MeanWait[osid.Windows]),
				metrics.Dur(s.Makespan),
				fmt.Sprintf("%d/%d", done, subm),
			})
		}
	}
	return t, nil
}

// E16SchedPolicies ranks strict FCFS against reservation-based EASY
// backfill on both schedulers, over the wide-mix traces where
// head-of-line blocking bites: the phased mix, whose 10-node phase
// leaders wedge the queue head, and a dense Poisson day that keeps a
// deep queue behind the wide catalog jobs. The EASY rule — a job may
// jump the blocked head only when it cannot delay the head's earliest
// reservation — lets narrow work flow around a wedged wide job
// without ever starving it, so backfill should buy equal-or-better
// utilisation while the wide jobs' MaxWait stays bounded by their
// reservations.
func E16SchedPolicies() (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "scheduler policy: strict FCFS vs EASY backfill on wide-mix traces",
		Header: []string{"trace", "sched", "util", "wait(L)", "wait(W)", "maxwait(L)", "maxwait(W)", "switches", "done/subm"},
		Notes:  "EASY backfill packs narrow jobs around the wedged wide head under a reservation that bounds the head's wait; unreserved greedy backfill would instead let the narrow stream starve it",
	}
	out, err := runSpec("e16_sched_policies.json")
	if err != nil {
		return t, err
	}
	t.EventsRun = sumEvents(out)
	for _, cells := range byTrace(out) {
		// Rank within the trace: utilisation first, then completed
		// jobs, expansion order as the stable tie-break.
		sort.SliceStable(cells, func(i, j int) bool {
			si, sj := cells[i].Res.Summary, cells[j].Res.Summary
			if si.Utilisation != sj.Utilisation {
				return si.Utilisation > sj.Utilisation
			}
			di := si.JobsCompleted[osid.Linux] + si.JobsCompleted[osid.Windows]
			dj := sj.JobsCompleted[osid.Linux] + sj.JobsCompleted[osid.Windows]
			return di > dj
		})
		for _, r := range cells {
			if r.Err != nil {
				return t, r.Err
			}
			s := r.Res.Summary
			done := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
			subm := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
			t.Rows = append(t.Rows, []string{
				r.Cell.Trace.Name,
				r.Cell.Sched.String(),
				metrics.Pct(s.Utilisation),
				metrics.Dur(s.MeanWait[osid.Linux]),
				metrics.Dur(s.MeanWait[osid.Windows]),
				metrics.Dur(s.MaxWait[osid.Linux]),
				metrics.Dur(s.MaxWait[osid.Windows]),
				fmt.Sprintf("%d", s.Switches),
				fmt.Sprintf("%d/%d", done, subm),
			})
		}
	}
	return t, nil
}

// A1CycleInterval ablates the detector reporting cycle. It errors when
// a job does not complete at some cycle length.
func A1CycleInterval() (Table, error) {
	t := Table{
		ID:     "A1",
		Title:  "ablation: detector cycle interval (paper used 5–10 min)",
		Header: []string{"cycle", "win-wait", "messages", "switches"},
		Notes:  "shorter cycles cut queue wait at the cost of control traffic",
	}
	const jobs = 3
	for _, cycle := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute} {
		res, err := core.Run(core.Scenario{
			Name:    cycle.String(),
			Cluster: cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: cycle},
			Trace: workload.Burst(workload.BurstConfig{
				Start: 0, Jobs: jobs, Gap: time.Minute, App: "Opera",
				OS: osid.Windows, Nodes: 1, PPN: 4, Runtime: time.Hour, Owner: "u",
			}),
			Horizon: 72 * time.Hour,
		})
		if err != nil {
			return t, err
		}
		if done := res.Summary.JobsCompleted[osid.Windows]; done != jobs {
			return t, fmt.Errorf("experiments: A1: %d of %d jobs completed at cycle %s", done, jobs, cycle)
		}
		t.EventsRun += res.EventsRun
		t.Rows = append(t.Rows, []string{
			cycle.String(),
			metrics.Dur(res.Summary.MeanWait[osid.Windows]),
			fmt.Sprintf("%d", res.Controller.StatesSent),
			fmt.Sprintf("%d", res.Summary.Switches),
		})
	}
	return t, nil
}

// A2Policies ablates the decision rule. The policy axis fans out
// through the sweep subsystem; each cell constructs its own policy
// instance (hysteresis carries state), and every policy faces the
// identical alternating trace.
func A2Policies() (Table, error) {
	t := Table{
		ID:     "A2",
		Title:  "ablation: controller decision policy (§V future work)",
		Header: []string{"policy", "util", "switches", "win-wait"},
		Notes:  "the paper's stuck-only FCFS is conservative; demand-proportional fair-share moves earlier and lifts utilisation",
	}
	g := sweep.Grid{
		Modes:    []cluster.Mode{cluster.HybridV2},
		Policies: sweep.DefaultPolicies(),
		Traces: []sweep.TraceSpec{{
			Name:   "alternating",
			Custom: func(int64) workload.Trace { return alternating(11) },
		}},
		Cycle:        5 * time.Minute,
		InitialLinux: 16,
		Horizon:      72 * time.Hour,
	}
	out, err := sweep.Run(sweep.Config{Grid: g})
	if err != nil {
		return t, err
	}
	t.EventsRun = sumEvents(out)
	for _, r := range out.Results {
		if r.Err != nil {
			return t, r.Err
		}
		t.Rows = append(t.Rows, []string{
			r.Cell.Policy.Name,
			metrics.Pct(r.Res.Summary.Utilisation),
			fmt.Sprintf("%d", r.Res.Summary.Switches),
			metrics.Dur(r.Res.Summary.MeanWait[osid.Windows]),
		})
	}
	return t, nil
}

// A3SwitchCost scales the reboot cost.
func A3SwitchCost() (Table, error) {
	t := Table{
		ID:     "A3",
		Title:  "ablation: reboot cost vs hybrid benefit",
		Header: []string{"boot-scale", "mean-switch", "hybrid-util", "static-util", "switch-overhead"},
		Notes:  "the multi-boot con (§II) grows with boot time; the wide-job advantage persists but overhead climbs",
	}
	for _, scale := range []float64{0.5, 1, 4, 12} {
		lat := bootmgr.DefaultLatencyModel()
		lat.KernelLinux = time.Duration(float64(lat.KernelLinux) * scale)
		lat.KernelWindows = time.Duration(float64(lat.KernelWindows) * scale)
		lat.ServicesLinux = time.Duration(float64(lat.ServicesLinux) * scale)
		lat.ServicesWindows = time.Duration(float64(lat.ServicesWindows) * scale)
		lat.Shutdown = time.Duration(float64(lat.Shutdown) * scale)
		trace := workload.PhasedWideMix(workload.PhasedConfig{Seed: 5, Phases: 8, WindowsFrac: 0.5})
		results, err := core.CompareModes(
			[]cluster.Mode{cluster.HybridV2, cluster.Static},
			cluster.Config{InitialLinux: 8, Cycle: 5 * time.Minute, Latency: &lat},
			trace, 200*time.Hour)
		if err != nil {
			return t, err
		}
		h, s := results[0].Summary, results[1].Summary
		t.EventsRun += results[0].EventsRun + results[1].EventsRun
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("x%.1f", scale),
			metrics.Dur(h.MeanSwitch),
			metrics.Pct(h.Utilisation),
			metrics.Pct(s.Utilisation),
			metrics.Pct(h.SwitchOverhead),
		})
	}
	return t, nil
}

// E14RoutingPolicies ranks the campus router's placement policies on
// the Queensgate-like fabric: a flexible member (the cell's mode)
// between a Linux-only and a Windows-only static, all on one clock.
// The phased wide-job mix leads each phase with a 10-node job that
// wedges the flexible member's 8-node half whenever the router places
// it there, so the paper's stuck-only FCFS actually fires.
// The mode axis flips the flexible member between hybrid-v2 and
// static, so the table also shows whether a hybrid in the fabric pays
// for itself under each routing rule.
func E14RoutingPolicies() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "campus-grid routing policies across the QGG fabric",
		Header: []string{"fabric-member", "routing", "util", "wait(L)", "wait(W)", "switches", "dropped", "done/subm"},
		Notes:  "campus topology: flexible member + linux-only static + windows-only static, 16 nodes each; when the router lands a 10-node lead job on the flexible member its 8-node half wedges and dualboot shifts nodes across (switches, nothing dropped), while hybrid-last keeps wide work on the 16-node statics and avoids the churn entirely",
	}
	out, err := runSpec("e14_routing_policies.json")
	if err != nil {
		return t, err
	}
	t.EventsRun = sumEvents(out)
	for _, r := range out.Results {
		if r.Err != nil {
			return t, r.Err
		}
		s := r.Res.Summary
		done := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
		subm := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
		t.Rows = append(t.Rows, []string{
			r.Cell.Mode.String(),
			r.Cell.Routing.String(),
			metrics.Pct(s.Utilisation),
			metrics.Dur(s.MeanWait[osid.Linux]),
			metrics.Dur(s.MeanWait[osid.Windows]),
			fmt.Sprintf("%d", s.Switches),
			fmt.Sprintf("%d", r.Res.Dropped),
			fmt.Sprintf("%d/%d", done, subm),
		})
	}
	return t, nil
}
