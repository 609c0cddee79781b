package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/osid"
	"repro/internal/sweep"
)

// metroBackfill is one E17 cell: 2500-node hybrid-v2 under EASY backfill,
// Poisson 500 jobs/h at 30% Windows for 24 h. EASY reserve/tryBackfill
// dominates; the controller never switches at this size.
func metroBackfill(opts options) (*outcome, error) {
	grid := map[string]string{
		"modes": "hybrid-v2", "schedpolicies": "backfill", "nodes": "2500",
		"rates": "500", "winfracs": "0.3", "hours": "24", "traces": "poisson",
	}
	if opts.small {
		grid["nodes"], grid["rates"], grid["hours"] = "64", "20", "4"
	}
	return runSim(opts, "metro_backfill", grid, checkMetroGolden)
}

// cityFCFS is a shortened E18 cell: 10000-node hybrid-v2 under FCFS,
// Poisson 2000 jobs/h for 100 h, saturating. The calendar queue, the
// FCFS ledgers, metrics integration and trace generation do the work.
func cityFCFS(opts options) (*outcome, error) {
	grid := map[string]string{
		"modes": "hybrid-v2", "schedpolicies": "fcfs", "nodes": "10000",
		"rates": "2000", "winfracs": "0.3", "hours": "100", "traces": "poisson",
	}
	if opts.small {
		grid["nodes"], grid["rates"], grid["hours"] = "100", "50", "4"
	}
	return runSim(opts, "city_fcfs", grid, checkCityPinned)
}

// After every repetition, outside its miss, the run times extra set-ups
// (up to simSetupsPerRep, while they fit in simSetupBudgetPerRep) and a
// burst of simHitsPerRep cache hits. Millisecond samples taken in one
// burst would catch the host at one instant; spread over the run they
// see the same host as the repetitions do. A burst of 250 hits costs
// well under a tenth of a second, so a run's hit percentiles rest on
// more than a thousand samples.
const (
	simSetupsPerRep      = 8
	simSetupBudgetPerRep = 250 * time.Millisecond
	simHitsPerRep        = 250
	simHitWarmups        = 20
)

// pinnedCheck compares a full-size run at the default seed against
// numbers recorded from the committed code.
type pinnedCheck func(opts options, csv []byte, res core.Result) error

// simRun is the state of one single-cell workload run.
type simRun struct {
	opts     options
	out      *outcome
	doc      []byte
	hitDoc   []byte
	hash     string
	cell     sweep.Cell
	sc       core.Scenario
	jobs     int
	setups   []float64
	reps     phases
	misses   []float64
	hits     []float64
	firstCSV []byte
	first    core.Result // checkpointed
}

// runSim measures one single-cell workload.
//
// Set-up (setup_s) is sweep.LoadSpec + sweep.SpecHash + Grid.Expand +
// Cell.Scenario: spec load, cell expansion and trace generation. The
// measured phase repeats set-up then core.Run until the budget is spent;
// wall_s and alloc_mb are per-repetition medians of core.Run. A miss is
// the whole request for an uncached cell (set-up, run, CSV); a hit is
// the same cell requested again with a reformatted document and
// answered through sweep.Run's Cached hook, the path the service replays
// checkpointed cells through.
func runSim(opts options, name string, grid map[string]string, pinned pinnedCheck) (*outcome, error) {
	r := &simRun{opts: opts, out: &outcome{}, doc: specDoc(name, grid, opts.seed)}
	var err error
	if r.hitDoc, err = reformat(r.doc); err != nil {
		return nil, err
	}
	if err := r.build(0); err != nil { // warm-up, untimed
		return nil, err
	}
	r.jobs = len(r.sc.Trace)
	if err := repeatFor(opts.budget, r.rep); err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	opts.tr.stopProfile()
	out := r.out
	if opts.seed == defaultSeed && !opts.small {
		out.attempted++
		if err := pinned(opts, r.firstCSV, r.first); err != nil {
			out.fail("pinned check at seed %d: %v", defaultSeed, err)
		}
	}

	e := &out.endToEnd
	e.timing("setup_s", r.setups, "s")
	r.reps.addEndToEnd(e, "core.Run calls")
	e.add("peak_rss_mb", rss, "MB")
	e.latency("miss_latency", r.misses)
	e.latency("hit_latency", r.hits)

	tr := opts.tr
	l := &out.perLayer
	l.timing("workload.build_s", tr.durations("workload.build"), "s")
	l.count("workload.jobs", float64(r.jobs))
	l.timing("sweep.load_ms", tr.durations("sweep.load"), "ms")
	l.count("sweep.cells", 1)
	runS := median(tr.durations("core.run"))
	l.timing("core.run_s", tr.durations("core.run"), "s")
	l.add("core.us_per_event", runS/float64(max(r.first.EventsRun, 1))*1e6, "us", "core.run_s / simtime.events_run")
	addResultCounts(l, []core.Result{r.first})
	addServiceCounts(l, nil, 0, 0, 0)
	r.reps.addRuntime(l)
	l.add("trace.wall_s", median(r.reps.field(func(p phase) float64 { return p.wall })), "s",
		"traced wall_s; minus the untraced median it is the tracing overhead")
	out.notes = append(out.notes, fmt.Sprintf("%s: %d repetitions of %s, %d set-ups, %d hits",
		name, len(r.reps), r.cell.Name(), len(r.setups), len(r.hits)),
		fmt.Sprintf("core.Run host times (s): %.3f", r.reps.field(func(p phase) float64 { return p.wall })),
		halves("setup_s", r.setups, 1e3, "ms"))
	return out, nil
}

// build is the set-up: spec load, expansion and trace generation.
func (r *simRun) build(req int) error {
	tr := r.opts.tr
	root := tr.begin("setup", 0, req)
	defer tr.end(root)
	s := tr.begin("sweep.load", root, req)
	sp, h, err := loadSpec(r.doc)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("sweep.expand", root, req)
	cells := sp.Grid.Expand()
	tr.end(s)
	if len(cells) != 1 {
		return fmt.Errorf("spec expands to %d cells, want 1", len(cells))
	}
	s = tr.begin("workload.build", root, req)
	r.sc, err = cells[0].Scenario()
	tr.end(s)
	r.hash, r.cell = h, cells[0]
	return err
}

// rep is one measured repetition (set-up, core.Run, CSV) followed by the
// extra set-ups and the burst of hits.
func (r *simRun) rep(rep int) error {
	tr, out := r.opts.tr, r.out
	req := rep + 1
	runtime.GC()
	setup, err := timed(func() error { return r.build(req) })
	if err != nil {
		return err
	}
	r.setups = append(r.setups, setup)
	var res core.Result
	p, runErr := measure(func() error {
		s := tr.begin("core.run", 0, req)
		defer tr.end(s)
		var err error
		res, err = core.Run(r.sc)
		return err
	})
	out.attempted++
	if runErr != nil {
		out.fail("run %d: %v", req, runErr)
		if rep == 0 {
			return runErr
		}
		return nil
	}
	var csv []byte
	render, err := timed(func() error {
		s := tr.begin("export.render", 0, req)
		defer tr.end(s)
		var err error
		csv, err = renderCSV([]sweep.CellResult{{Cell: r.cell, Res: res}})
		return err
	})
	if err != nil {
		return err
	}
	r.reps = append(r.reps, p)
	r.misses = append(r.misses, setup+p.wall+render)
	switch {
	case rep == 0:
		r.firstCSV, r.first = csv, checkpointed(res)
		if err := checkSimResult(res); err != nil {
			out.fail("run %d: %v", req, err)
		}
	case !bytes.Equal(csv, r.firstCSV):
		out.fail("run %d: CSV differs from run 1 (same spec must give the same bytes)", req)
	}
	// Drop this repetition's scenario and result so the extra set-ups
	// and hits start from a collected heap.
	res, r.sc = core.Result{}, core.Scenario{}

	for spent := 0.0; len(r.setups) < (rep+1)*(1+simSetupsPerRep) && spent < simSetupBudgetPerRep.Seconds(); {
		runtime.GC()
		d, err := timed(func() error { return r.build(0) })
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d)
		spent += d
	}
	r.sc = core.Scenario{}
	runtime.GC()
	warm := 0
	if rep == 0 {
		warm = simHitWarmups
	}
	for i := 0; i < warm+simHitsPerRep; i++ {
		d, err := r.hit(req)
		if i < warm {
			continue
		}
		out.attempted++
		if err != nil {
			out.fail("hit after run %d: %v", req, err)
			continue
		}
		r.hits = append(r.hits, d)
	}
	return nil
}

// hit requests the cell again with the reformatted document and answers
// it from the stored result through sweep.Run's Cached hook.
func (r *simRun) hit(req int) (float64, error) {
	tr := r.opts.tr
	t0 := time.Now()
	root := tr.begin("hit", 0, req)
	defer tr.end(root)
	s := tr.begin("sweep.load", root, req)
	sp, h, err := loadSpec(r.hitDoc)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if h != r.hash {
		return 0, fmt.Errorf("reformatted document hashes to %s, original to %s", h, r.hash)
	}
	stored := sweep.CellResult{Res: r.first}
	s = tr.begin("sweep.run", root, req)
	o, err := sweep.Run(sweep.Config{
		Grid: sp.Grid, Workers: 1,
		Cached: func(sweep.Cell) (sweep.CellResult, bool) { return stored, true },
	})
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("export.render", root, req)
	csv, err := renderCSV(o.Results)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(csv, r.firstCSV) {
		return 0, fmt.Errorf("CSV differs from the computed result")
	}
	return time.Since(t0).Seconds(), nil
}

// checkpointed keeps the fields of a result that a CSV row and the
// per-layer counts read, as a service checkpoint does.
func checkpointed(r core.Result) core.Result {
	return core.Result{Summary: r.Summary, Thrash: r.Thrash, BrokenNodes: r.BrokenNodes,
		Dropped: r.Dropped, EventsRun: r.EventsRun}
}

// checkSimResult applies the seed-independent checks to a cell result.
func checkSimResult(res core.Result) error {
	s := res.Summary
	done := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
	subm := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
	switch {
	case res.EventsRun == 0:
		return fmt.Errorf("no engine events ran")
	case subm == 0 || done == 0:
		return fmt.Errorf("%d of %d jobs completed", done, subm)
	case done > subm:
		return fmt.Errorf("%d jobs completed but only %d submitted", done, subm)
	case s.SubmitFailures != 0:
		return fmt.Errorf("%d submissions rejected", s.SubmitFailures)
	}
	return nil
}

// checkMetroGolden: the backfill 500 jobs/h row of the committed E17
// golden CSV, byte for byte.
func checkMetroGolden(opts options, csv []byte, _ core.Result) error {
	const cell = "hybrid-v2/fcfs/n2500/poisson-500jph-w0.3/f0/backfill"
	header, row, err := goldenRow(opts.root, "e17_metro_scale.csv", cell)
	if err != nil {
		return err
	}
	want := header + "\n" + row + "\n"
	if string(csv) != want {
		return fmt.Errorf("CSV differs from specs/golden/e17_metro_scale.csv row %s:\n got %q\nwant %q", cell, csv, want)
	}
	return nil
}

// City run counts recorded at the default seed.
const (
	cityEventsRun     = 691920
	cityLinuxDone     = 84363
	cityWindowsDone   = 60003
	cityJobsSubmitted = 199818
)

// checkCityPinned: the city cell's engine event count and completions.
func checkCityPinned(_ options, _ []byte, res core.Result) error {
	s := res.Summary
	got := []int{int(res.EventsRun), s.JobsCompleted[osid.Linux], s.JobsCompleted[osid.Windows],
		s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]}
	want := []int{cityEventsRun, cityLinuxDone, cityWindowsDone, cityJobsSubmitted}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("events_run, linux done, windows done, submitted = %v, want %v", got, want)
	}
	return nil
}

// addResultCounts reports the exact per-layer counts from core.Result,
// summed over results.
func addResultCounts(l *metricSet, results []core.Result) {
	var events, linuxDone, winDone, fails, broken, switches, thrash, dropped float64
	for _, r := range results {
		events += float64(r.EventsRun)
		linuxDone += float64(r.Summary.JobsCompleted[osid.Linux])
		winDone += float64(r.Summary.JobsCompleted[osid.Windows])
		fails += float64(r.Summary.SubmitFailures)
		broken += float64(r.BrokenNodes)
		switches += float64(r.Summary.Switches)
		thrash += float64(r.Thrash)
		dropped += float64(r.Dropped)
	}
	l.count("simtime.events_run", events)
	l.count("pbs.jobs_completed", linuxDone)
	l.count("winhpc.jobs_completed", winDone)
	l.count("cluster.submit_failures", fails)
	l.count("cluster.broken_nodes", broken)
	l.count("controller.switches", switches)
	l.count("controller.thrash", thrash)
	l.count("grid.dropped", dropped)
}
