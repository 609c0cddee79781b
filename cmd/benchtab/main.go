// Command benchtab regenerates every table and figure of the paper's
// evaluation (see README.md for the map) and prints them as text
// tables — the rows EXPERIMENTS.md records. Full-suite runs also
// write BENCH_sim.json, a machine-readable perf record (wall ns plus
// simulation wakeups per experiment) so the repository's performance
// trajectory can be tracked across commits; subset runs leave the
// record alone unless -benchjson is passed explicitly.
//
// With -check the binary becomes the CI benchmark-regression gate: it
// reruns the experiments and diffs their deterministic EventsRun
// against the committed baseline, failing on any drift, and compares
// heap allocations per run, failing when an experiment allocates more
// than 5% over its baseline, in objects or in bytes (allocation counts
// are near-deterministic; the tolerance absorbs runtime-internal
// noise). Wall-clock ns/op is
// printed as an advisory delta only — it depends on the machine; the
// wakeup and allocation counts do not.
//
// The swept experiments (E12–E20) run the spec documents committed
// under specs/: to change one, edit specs/<file>.json and regenerate
// its golden under specs/golden/.
//
// Usage:
//
//	benchtab            # run every experiment
//	benchtab E8 A2      # run selected experiments
//	benchtab -list      # list experiment IDs
//	benchtab -benchjson ""  # skip the perf record
//	benchtab -check BENCH_sim.json E8 E13 E15  # CI gate: fail on EventsRun drift
//	benchtab -benchjson "" -cpuprofile e17.pprof E17  # profile the selected runs
//
// -cpuprofile and -memprofile write pprof profiles (runtime/pprof)
// covering the selected experiments' runs; read them with
// `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchRecord is one experiment's perf sample in BENCH_sim.json.
type benchRecord struct {
	ID string `json:"id"`
	// NsPerOp is the wall-clock nanoseconds of one full experiment
	// regeneration (the only nondeterministic number this repository
	// emits — everything else is simulated time).
	NsPerOp int64 `json:"ns_per_op"`
	// EventsRun counts the simulation wakeups (engine callbacks)
	// behind the experiment; zero for pure-artifact tables. With the
	// event-driven quiescence driver this is the number the drain
	// refactor optimises.
	EventsRun uint64 `json:"events_run"`
	// AllocsPerOp counts heap allocations (runtime Mallocs delta)
	// across one regeneration — the machine-independent cost metric
	// the gate enforces, since an allocation regression on the hot
	// path shows up here long before wall clock moves on fast
	// hardware.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	// AllocBytesPerOp counts the bytes those allocations asked for
	// (runtime TotalAlloc delta). Objects and bytes are gated apart: a
	// record that shrinks without dropping an object moves only this
	// number.
	AllocBytesPerOp uint64 `json:"alloc_bytes_per_op"`
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	benchJSON := flag.String("benchjson", "BENCH_sim.json", "write the per-experiment perf record here (empty to disable)")
	check := flag.String("check", "", "benchmark-regression gate: compare EventsRun against this baseline record and fail on drift (ns/op stays advisory)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments' runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after the selected experiments' runs, to this file")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Println(r.ID)
		}
		return
	}

	runners := experiments.All()
	subset := len(flag.Args()) > 0
	if subset {
		runners = runners[:0]
		for _, id := range flag.Args() {
			r, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}
	// The default perf record tracks the whole suite; a subset run
	// must not truncate it to a partial array. Writing a subset record
	// still works when -benchjson is given explicitly.
	explicitJSON := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "benchjson" {
			explicitJSON = true
		}
	})
	// A gate run only compares; it never rewrites the record it is
	// gating against.
	writeJSON := *check == "" && *benchJSON != "" && (!subset || explicitJSON)

	failed := 0
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		var err error
		if stopCPU, err = startCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
	var records []benchRecord
	var ms runtime.MemStats
	for _, r := range runners {
		runtime.ReadMemStats(&ms)
		mallocsBefore, bytesBefore := ms.Mallocs, ms.TotalAlloc
		start := time.Now() //simlint:allow walltime -- benchtab measures real ns/op; the advisory timing IS wall-clock
		tab, err := r.Run()
		elapsed := time.Since(start) //simlint:allow walltime -- benchtab measures real ns/op; the advisory timing IS wall-clock
		runtime.ReadMemStats(&ms)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", r.ID, err)
			failed++
			continue
		}
		records = append(records, benchRecord{
			ID:              r.ID,
			NsPerOp:         elapsed.Nanoseconds(),
			EventsRun:       tab.EventsRun,
			AllocsPerOp:     ms.Mallocs - mallocsBefore,
			AllocBytesPerOp: ms.TotalAlloc - bytesBefore,
		})
		if *check == "" { // the gate prints its own compact report
			fmt.Println(tab.Render())
		}
	}
	if err := stopCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		failed++
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			failed++
		}
	}
	if *check != "" {
		if !checkBaseline(*check, records) {
			failed++
		}
	}
	switch {
	case writeJSON && failed > 0:
		// A failed experiment would leave a partial array — the same
		// truncation the subset guard prevents. Keep the old record.
		fmt.Fprintf(os.Stderr, "benchtab: %d experiment(s) failed; not writing %s\n", failed, *benchJSON)
	case writeJSON && len(records) > 0:
		if err := writeBenchJSON(*benchJSON, records); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			failed++
		} else {
			fmt.Printf("perf record written to %s\n", *benchJSON)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// startCPUProfile starts a CPU profile into path and returns the
// function that finishes it.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes the heap profile, after a collection so the
// live-object figures are current, as go test -memprofile does.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocTolerance is the headroom the allocation gate grants over the
// baseline before failing: allocation counts are near-deterministic,
// but concurrent sweep workers and runtime internals contribute a
// small jitter the gate must not flake on.
const allocTolerance = 1.05

// checkBaseline is the benchmark-regression gate: every record's
// EventsRun must equal the committed baseline's byte for byte — the
// simulation is deterministic, so any difference is a behaviour change
// someone must either fix or deliberately bake into a refreshed
// baseline — and its allocation count and allocated bytes must each
// stay within allocTolerance of the baseline's. Wall-clock ns/op is
// reported as an advisory delta only.
func checkBaseline(path string, records []benchRecord) bool {
	baseline, err := readBenchJSON(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: baseline: %v\n", err)
		return false
	}
	base := make(map[string]benchRecord, len(baseline))
	for _, r := range baseline {
		base[r.ID] = r
	}
	drift := 0
	for _, r := range records {
		b, ok := base[r.ID]
		if !ok {
			fmt.Printf("%-4s  events %12d  baseline MISSING (refresh %s)\n", r.ID, r.EventsRun, path)
			drift++
			continue
		}
		// Every failed check is named, so an events drift is never
		// hidden behind an allocation failure on the same line.
		var fails []string
		if r.EventsRun != b.EventsRun {
			fails = append(fails, "DRIFT")
		}
		allocDelta, over := allocGate(r.AllocsPerOp, b.AllocsPerOp)
		if over {
			fails = append(fails, "ALLOC")
		}
		bytesDelta, over := allocGate(r.AllocBytesPerOp, b.AllocBytesPerOp)
		if over {
			fails = append(fails, "BYTES")
		}
		status := "ok"
		if len(fails) > 0 {
			status = strings.Join(fails, "+")
			drift++
		}
		wallDelta := "n/a"
		if b.NsPerOp > 0 {
			wallDelta = fmt.Sprintf("%+.0f%%", 100*(float64(r.NsPerOp)-float64(b.NsPerOp))/float64(b.NsPerOp))
		}
		fmt.Printf("%-4s  events %12d  baseline %12d  %-5s  allocs %8s  bytes %8s  wall %8s vs baseline (advisory)\n",
			r.ID, r.EventsRun, b.EventsRun, status, allocDelta, bytesDelta, wallDelta)
	}
	if drift > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d experiment(s) drifted from %s\n", drift, path)
		return false
	}
	fmt.Printf("benchtab: %d experiment(s) match %s\n", len(records), path)
	return true
}

// allocGate renders an allocation figure's change from its baseline
// and reports whether it grew past allocTolerance; a zero baseline (a
// record from before the figure existed) is not gated.
func allocGate(cur, base uint64) (delta string, over bool) {
	if base == 0 {
		return "n/a", false
	}
	delta = fmt.Sprintf("%+.1f%%", 100*(float64(cur)-float64(base))/float64(base))
	return delta, float64(cur) > float64(base)*allocTolerance
}

func readBenchJSON(path string) ([]benchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []benchRecord
	if err := json.NewDecoder(f).Decode(&records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

func writeBenchJSON(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
