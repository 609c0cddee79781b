package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

const (
	// servedDocsPerRound is K: each measured round submits K distinct
	// spec documents (misses), then resubmits each reformatted (hits).
	servedDocsPerRound = 12
	// servedHitsPerDoc is how many times each document is resubmitted
	// after the round's misses. A hit takes under a millisecond, so the
	// round's 96 hits cost about a hundredth of the round, and a run's
	// hit percentiles rest on several hundred samples rather than K per
	// round.
	servedHitsPerDoc = 8
	// setup_s is the median of servedSetupsBefore daemon starts before
	// the measured phase and servedSetupsPerRound after each round. One
	// start takes well under a millisecond, so a round's 30 cost about a
	// hundredth of the round and the run's median rests on ~250 samples.
	servedSetupsBefore   = 30
	servedSetupsPerRound = 30
)

// servedGrid is the served spec: 16-node clusters across the three
// modes, three switching policies, two oscillating trace kinds and both
// topologies — 36 cells that switch OS about 490 times in all, so the
// controller, boot manager and campus grid do their work here. The
// traces span 96 h so that simulation, not the ~80 fsyncs a miss costs
// on an on-disk state dir, is most of a miss.
func servedGrid(small bool) map[string]string {
	g := map[string]string{
		"modes":       "hybrid-v1,hybrid-v2,static-split",
		"ctlpolicies": "fcfs,hysteresis,predictive",
		"nodes":       "16", "rates": "3", "winfracs": "0.5", "hours": "96",
		"traces":     "diurnal,burst",
		"topologies": "single,campus",
	}
	if small {
		g["modes"], g["hours"] = "hybrid-v2", "6"
	}
	return g
}

// servedDoc is one document of a run: its two renderings, its content
// address, and what the daemon answered.
type servedDoc struct {
	doc, hitDoc []byte
	hash        string
	cells       int
	jobID       string
	csv         []byte
	ok          bool // the miss succeeded; its hit and local check apply
}

// servedSweeps runs qsim serve in-process on 127.0.0.1 with one daemon
// worker and drives it with one closed-loop client. Each round submits
// K new documents (Submit, Wait, Result: a miss) and then resubmits each
// reformatted servedHitsPerDoc times (Submit, Result: a hit, answered
// from the cache). After
// the measured phase every served CSV is compared with a local
// sweep.Run of the same document.
func servedSweeps(opts options) (*outcome, error) {
	out := &outcome{}
	tr := opts.tr
	grid := servedGrid(opts.small)
	k := servedDocsPerRound
	if opts.small {
		k = 2
	}
	stateRoot := filepath.Join(opts.workDir, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)

	// Set-up: daemon start on an empty state dir up to the first healthy
	// /v1/healthz. It takes under a millisecond, so it is timed many times
	// before the measured phase and again after every round, which
	// spreads the samples over the run. One collection before each batch
	// keeps the previous round's garbage out of the timings.
	//
	// The first start creates the state dir's layout and is not timed;
	// the timed starts reuse that empty dir. Creating directories waits
	// on the filesystem journal, which the rounds' fsyncs and deletions
	// keep busy: on a shared VM disk that wait alone moved run medians
	// between 0.6 and 2 ms. The batch runs on one P: a start is a chain
	// of handoffs between the client, the listener and the handler, and
	// on two Ps each handoff can wake an idle thread, whose latency on a
	// shared VM is also the host's, not the program's.
	setupDir := filepath.Join(stateRoot, "setup")
	first, err := startDaemon(setupDir, opts.root)
	if err != nil {
		return nil, err
	}
	first.stop()
	var setups []float64
	timeSetups := func(n int) error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		for i := 0; i < n; i++ {
			var d *daemon
			t, err := timed(func() error {
				var err error
				d, err = startDaemon(setupDir, opts.root)
				return err
			})
			if err != nil {
				return err
			}
			d.stop()
			setups = append(setups, t)
		}
		return nil
	}
	if err := timeSetups(servedSetupsBefore); err != nil {
		return nil, err
	}

	d, err := startDaemon(filepath.Join(stateRoot, "daemon"), opts.root)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	newDoc := func(seed int64) (*servedDoc, error) {
		return newServedDoc(specDoc("served mix", grid, seed), tr)
	}

	// Warm-up: one miss and one hit on a document no round reuses.
	warm, err := newDoc(opts.seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := d.miss(warm, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up miss: %w", err)
	}
	if _, _, err := d.hit(warm, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up hit: %w", err)
	}

	var (
		rounds       phases
		docs         []*servedDoc
		misses, hits []float64
		// the first round's cells the daemon reports run and hits it
		// answers with a finished job, for the per-layer counts
		cellsRun, cached int
	)
	err = repeatFor(opts.budget, func(round int) error {
		batch := make([]*servedDoc, k)
		for i := range batch {
			var err error
			if batch[i], err = newDoc(opts.seed + 1 + int64(round*k+i)); err != nil {
				return err
			}
		}
		docs = append(docs, batch...)
		p, err := measure(func() error {
			for i, sd := range batch {
				out.attempted++
				t, done, err := d.miss(sd, tr, 1+round*k+i)
				if err != nil {
					out.fail("miss %s: %v", sd.hash[:12], err)
					continue
				}
				misses = append(misses, t)
				if round == 0 {
					cellsRun += done.CellsDone
				}
			}
			// The hits start from a collected heap, so that no cycle
			// over the misses' garbage runs during them.
			runtime.GC()
			for pass := 0; pass < servedHitsPerDoc; pass++ {
				for i, sd := range batch {
					if !sd.ok {
						continue
					}
					out.attempted++
					t, answered, err := d.hit(sd, tr, 1+round*k+i)
					if err != nil {
						out.fail("hit %s: %v", sd.hash[:12], err)
						continue
					}
					hits = append(hits, t)
					if round == 0 && pass == 0 && answered.State == service.StateDone && answered.CellsDone == answered.Cells {
						cached++
					}
				}
			}
			return nil
		})
		rounds = append(rounds, p)
		if err != nil {
			return err
		}
		return timeSetups(servedSetupsPerRound)
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	tr.stopProfile()
	d.stop()

	firstRound, jobs := verifyServed(out, docs, k, tr)

	e := &out.endToEnd
	e.timing("setup_s", setups, "s")
	rounds.addEndToEnd(e, fmt.Sprintf("rounds of %d misses + %d hits", k, k*servedHitsPerDoc))
	e.add("peak_rss_mb", rss, "MB")
	e.latency("miss_latency", misses)
	e.latency("hit_latency", hits)

	l := &out.perLayer
	l.timing("workload.build_s", tr.durations("workload.build"), "s")
	l.count("workload.jobs", jobs)
	l.timing("sweep.load_ms", tr.durations("sweep.load"), "ms")
	l.count("sweep.cells", float64(docs[0].cells))
	l.add("core.run_s", 0, "s", "not called directly on this workload")
	l.add("core.us_per_event", 0, "us", "not called directly on this workload")
	addResultCounts(l, firstRound)
	addServiceCounts(l, tr, cellsRun, cached, out.failed)
	rounds.addRuntime(l)
	l.add("trace.wall_s", median(rounds.field(func(p phase) float64 { return p.wall })), "s",
		"traced wall_s; minus the untraced median it is the tracing overhead")
	out.notes = append(out.notes, fmt.Sprintf("served_sweeps: %d rounds, %d misses, %d hits, %d cells per document, %d daemon set-ups",
		len(rounds), len(misses), len(hits), docs[0].cells, len(setups)),
		halves("setup_s", setups, 1e3, "ms"))
	return out, nil
}

// newServedDoc prepares a document and its reformatted twin, checking
// that both load to the same spec hash.
func newServedDoc(doc []byte, tr *tracer) (*servedDoc, error) {
	sd := &servedDoc{doc: doc}
	var err error
	if sd.hitDoc, err = reformat(doc); err != nil {
		return nil, err
	}
	s := tr.begin("sweep.load", 0, 0)
	sp, hash, err := loadSpec(sd.doc)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sweep.load", 0, 0)
	_, hitHash, err := loadSpec(sd.hitDoc)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if hitHash != hash {
		return nil, fmt.Errorf("reformatted document hashes to %s, original to %s", hitHash, hash)
	}
	sd.hash, sd.cells = hash, len(sp.Grid.Expand())
	return sd, nil
}

// verifyServed is the output check run after the measured phase: every
// served CSV must equal a local sweep.Run of its document with one
// worker. It returns the core results of the first k documents and the
// jobs their cells generate, for the per-layer counts.
func verifyServed(out *outcome, docs []*servedDoc, k int, tr *tracer) ([]core.Result, float64) {
	var firstRound []core.Result
	var jobs float64
	for i, sd := range docs {
		if !sd.ok {
			continue
		}
		out.attempted++
		local, res, err := localSweep(sd.doc)
		switch {
		case err != nil:
			out.fail("local sweep %s: %v", sd.hash[:12], err)
			continue
		case !bytes.Equal(local, sd.csv):
			out.fail("served CSV %s differs from local sweep.Run", sd.hash[:12])
		}
		if i < k {
			firstRound = append(firstRound, res...)
			n, err := buildTraces(sd.doc, tr)
			if err != nil {
				out.fail("building traces of %s: %v", sd.hash[:12], err)
			}
			jobs += float64(n)
		}
	}
	return firstRound, jobs
}

// buildTraces materialises every cell of a document, timing each
// Cell.Scenario as a workload.build span, and returns the jobs generated.
func buildTraces(doc []byte, tr *tracer) (int, error) {
	sp, _, err := loadSpec(doc)
	if err != nil {
		return 0, err
	}
	jobs := 0
	for _, c := range sp.Grid.Expand() {
		s := tr.begin("workload.build", 0, 0)
		sc, err := c.Scenario()
		tr.end(s)
		if err != nil {
			return 0, err
		}
		jobs += len(sc.Trace)
	}
	return jobs, nil
}

// addServiceCounts reports the service layer: the medians of the client
// call spans, and counts. Workloads that do not use the service pass a
// nil tracer and zeros.
func addServiceCounts(l *metricSet, tr *tracer, cellsRun, cached, errors int) {
	for _, name := range []string{"submit", "wait", "result", "hit_submit", "hit_result"} {
		l.timing("service."+name+"_ms", tr.durations("service."+name), "ms")
	}
	l.count("service.cells_run", float64(cellsRun))
	l.count("service.jobs_cached", float64(cached))
	l.count("service.errors", float64(errors))
}

// daemon is an in-process qsim serve instance and a client bound to it.
type daemon struct {
	srv    *service.Server
	client *service.Client
	http   *http.Client
}

func startDaemon(stateDir, root string) (*daemon, error) {
	srv, err := service.New(service.Config{Addr: "127.0.0.1:0", StateDir: stateDir, Workers: 1, Root: root})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	d := &daemon{srv: srv, http: hc, client: &service.Client{Base: srv.Addr(), HTTPClient: hc}}
	if err := d.client.Health(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down and waits for it; calling it again is a
// no-op.
func (d *daemon) stop() {
	if d.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // the state dir is removed next
	d.http.CloseIdleConnections()
	d.srv = nil
}

// miss submits a new document, waits for it and fetches its CSV. It
// returns the request's latency in seconds and the finished job as Wait
// reported it.
func (d *daemon) miss(sd *servedDoc, tr *tracer, req int) (float64, service.Job, error) {
	t0 := time.Now()
	root := tr.begin("miss", 0, req)
	defer tr.end(root)
	s := tr.begin("service.submit", root, req)
	job, err := d.client.Submit(bytes.NewReader(sd.doc))
	tr.end(s)
	if err != nil {
		return 0, job, err
	}
	if job.Cached || job.State == service.StateDone {
		return 0, job, fmt.Errorf("new document answered as %s (cached=%v)", job.State, job.Cached)
	}
	s = tr.begin("service.wait", root, req)
	job, err = d.client.Wait(job.ID)
	tr.end(s)
	if err != nil {
		return 0, job, err
	}
	if job.State != service.StateDone || job.CellsDone != sd.cells || job.SpecHash != sd.hash {
		return 0, job, fmt.Errorf("job %s ended %s with %d/%d cells, hash %s (error %q)",
			job.ID, job.State, job.CellsDone, sd.cells, job.SpecHash, job.Error)
	}
	s = tr.begin("service.result", root, req)
	csv, err := d.client.Result(job.ID, "csv")
	tr.end(s)
	if err != nil {
		return 0, job, err
	}
	sd.jobID, sd.csv, sd.ok = job.ID, csv, true
	return time.Since(t0).Seconds(), job, nil
}

// hit resubmits a served document reformatted and fetches its CSV again:
// the daemon must answer with the finished job and the same bytes. It
// returns the latency in seconds and the job as Submit reported it.
func (d *daemon) hit(sd *servedDoc, tr *tracer, req int) (float64, service.Job, error) {
	t0 := time.Now()
	root := tr.begin("hit", 0, req)
	defer tr.end(root)
	s := tr.begin("service.hit_submit", root, req)
	job, err := d.client.Submit(bytes.NewReader(sd.hitDoc))
	tr.end(s)
	if err != nil {
		return 0, job, err
	}
	if job.ID != sd.jobID || job.State != service.StateDone {
		return 0, job, fmt.Errorf("resubmission answered as job %s %s, want finished job %s", job.ID, job.State, sd.jobID)
	}
	s = tr.begin("service.hit_result", root, req)
	csv, err := d.client.Result(job.ID, "csv")
	tr.end(s)
	if err != nil {
		return 0, job, err
	}
	if !bytes.Equal(csv, sd.csv) {
		return 0, job, fmt.Errorf("hit CSV differs from the miss CSV")
	}
	return time.Since(t0).Seconds(), job, nil
}
