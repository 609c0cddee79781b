package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/osid"
	"repro/internal/service"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func smallOptions(t *testing.T) options {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: defaultSeed, budget: time.Millisecond, root: root, workDir: t.TempDir(), small: true}
}

func readBenchmark(t *testing.T, root string) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size, once
// untraced and once traced, and checks that the result line carries
// exactly the metrics BENCHMARK.json declares, with their units, and
// that every output check passed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	opts := smallOptions(t)
	bj := readBenchmark(t, opts.root)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			o := opts
			want := map[string]string{}
			if traced {
				o.tr = newTracer(t.TempDir())
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			out, err := runWorkload(wl, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var buf bytes.Buffer
			if err := writeReport(&buf, out, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out.problems)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

func corrupt(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}

func TestMetroGoldenCheckRejectsCorruptedCSV(t *testing.T) {
	opts := smallOptions(t)
	header, row, err := goldenRow(opts.root, "e17_metro_scale.csv", "hybrid-v2/fcfs/n2500/poisson-500jph-w0.3/f0/backfill")
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(header + "\n" + row + "\n")
	if err := checkMetroGolden(opts, good, core.Result{}); err != nil {
		t.Fatalf("golden row rejected: %v", err)
	}
	if err := checkMetroGolden(opts, corrupt(good), core.Result{}); err == nil {
		t.Fatal("corrupted CSV accepted")
	}
}

func TestCityPinnedCheckRejectsOtherCounts(t *testing.T) {
	res := core.Result{EventsRun: cityEventsRun}
	res.Summary.JobsCompleted = map[osid.OS]int{osid.Linux: cityLinuxDone, osid.Windows: cityWindowsDone}
	res.Summary.JobsSubmitted = map[osid.OS]int{osid.Linux: cityJobsSubmitted}
	if err := checkCityPinned(options{}, nil, res); err != nil {
		t.Fatalf("pinned counts rejected: %v", err)
	}
	res.EventsRun++
	if err := checkCityPinned(options{}, nil, res); err == nil {
		t.Fatal("a different events_run was accepted")
	}
}

// TestServedChecksRejectCorruptedCSV serves one small document, then
// corrupts what the client holds: the hit check and the local-sweep
// check must both report it.
func TestServedChecksRejectCorruptedCSV(t *testing.T) {
	opts := smallOptions(t)
	d, err := startDaemon(filepath.Join(opts.workDir, "state"), opts.root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	sd, err := newServedDoc(specDoc("served mix", servedGrid(true), 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := d.miss(sd, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if done.CellsDone != sd.cells {
		t.Errorf("daemon reports %d cells run, want %d", done.CellsDone, sd.cells)
	}
	_, answered, err := d.hit(sd, nil, 1)
	if err != nil {
		t.Fatalf("hit on an intact CSV: %v", err)
	}
	if answered.State != service.StateDone || answered.CellsDone != answered.Cells {
		t.Errorf("resubmission answered as %s with %d/%d cells, want the finished job", answered.State, answered.CellsDone, answered.Cells)
	}
	var out outcome
	verifyServed(&out, []*servedDoc{sd}, 1, nil)
	if out.failed != 0 {
		t.Fatalf("intact CSV failed the local check: %v", out.problems)
	}

	sd.csv = corrupt(sd.csv)
	if _, _, err := d.hit(sd, nil, 1); err == nil {
		t.Error("hit check accepted a CSV that differs from the served one")
	}
	out = outcome{}
	verifyServed(&out, []*servedDoc{sd}, 1, nil)
	if out.failed != 1 {
		t.Errorf("local check: %d failures on a corrupted CSV, want 1", out.failed)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%d, want 90 at p90", v, p)
	}
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if v, p := tail(long); v != 900 || p != 90 {
		t.Errorf("tail of 1..1000 = %v at p%d, want 900 at p90", v, p)
	}
	if v, p := tail(xs[:19]); v != 96 || p != 78 {
		t.Errorf("tail of 82..100 = %v at p%d, want the upper quartile 96 at p78", v, p)
	}
	if v, p := tail([]float64{4, 1, 3, 2}); v != 3 || p != 75 {
		t.Errorf("tail of 1..4 = %v at p%d, want 3 at p75", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestReformatKeepsTheSpec(t *testing.T) {
	doc := specDoc("x", servedGrid(false), 3)
	re, err := reformat(doc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(re, doc) {
		t.Fatal("reformat returned the same bytes")
	}
	_, h1, err := loadSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := loadSpec(re)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("reformatted document hashes to %s, original to %s", h2, h1)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pbs.(*Server).schedule":  "pbs",
		"repro/internal/core.Run":                "other",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"net/http.(*conn).serve":                 "net_http",
		"encoding/json.(*decodeState).object":    "encoding_json",
		"syscall.Syscall6":                       "syscall",
		"internal/runtime/syscall.Syscall6":      "syscall",
		"aeshashbody":                            "runtime",
		"sort.insertionSort":                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
}
