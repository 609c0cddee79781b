// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator only through its public Go entry points (sweep.LoadSpec,
// sweep.SpecHash, sweep.Grid.Expand, sweep.Cell.Scenario, core.Run,
// sweep.Run, and service.New/Start plus service.Client), checks every
// output it gets back, and prints its metrics by name with their units.
//
//	perfbench --workload metro_backfill|city_fcfs|served_sweeps \
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run records spans and a CPU
// profile and reports the per-layer metrics instead, writing its span
// file, profile and per-package CPU shares under
// .bench_build/trace/<workload>/. With --overhead-runs N the process
// runs N untraced copies of itself and one traced copy and prints the
// tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned output checks were recorded at: the
// E17 golden row and the city run's event and completion counts.
const defaultSeed = 1700

// options is what a workload receives from the command line.
type options struct {
	seed    int64
	budget  time.Duration // how long the measured phase repeats its unit
	root    string        // repository root (holds go.mod and specs/)
	workDir string        // scratch space inside the checkout
	tr      *tracer       // nil for an untraced run
	small   bool          // tiny sizes, for the self-test
}

// outcome is what a workload hands back: its check tally, the
// end-to-end metrics and the per-layer ones.
type outcome struct {
	attempted, failed int
	problems          []string // why each failed operation failed
	endToEnd          metricSet
	perLayer          metricSet
	notes             []string // human-readable context printed before the JSON
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"metro_backfill": metroBackfill,
	"city_fcfs":      cityFCFS,
	"served_sweeps":  servedSweeps,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the pinned golden checks apply at the default")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	overhead := fs.Int("overhead-runs", 0, "run N untraced copies and one traced copy, then print the tracing overhead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), " | "))
		return 2
	}
	if *overhead > 0 {
		if err := reportOverhead(stdout, *name, *seed, *seconds, *overhead); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := options{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		root:    root,
		workDir: filepath.Join(root, ".bench_build"),
	}
	if *trace == 1 {
		opts.tr = newTracer(filepath.Join(opts.workDir, "trace", *name))
	}
	out, err := runWorkload(wl, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := writeReport(stdout, out, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload, bracketing it with the CPU profile and
// the span dump when the run is traced.
func runWorkload(wl workloadFunc, opts options) (*outcome, error) {
	if opts.tr == nil {
		return wl(opts)
	}
	if err := opts.tr.startProfile(); err != nil {
		return nil, err
	}
	out, err := wl(opts)
	if err != nil {
		opts.tr.stopProfile()
		return nil, err
	}
	shares, err := opts.tr.finish()
	if err != nil {
		return nil, err
	}
	for _, pkg := range sharePackages {
		out.perLayer.add("cpu_share."+pkg, shares[pkg], "sampled_share")
	}
	out.notes = append(out.notes, "trace files in "+opts.tr.dir)
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod declaring module repro) at or above the working directory")
		}
		dir = parent
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeReport prints the notes, each metric on its own line, every
// failed operation, and last the JSON result line.
func writeReport(w io.Writer, out *outcome, traced bool) error {
	ms := out.endToEnd
	if traced {
		ms = out.perLayer
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, m := range ms.list {
		fmt.Fprintf(w, "%-28s %14.6g %-14s %s\n", m.name, m.Value, m.Unit, m.detail)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	if out.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms.byName(),
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
