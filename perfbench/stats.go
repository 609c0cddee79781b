package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`

	name   string
	detail string // sample count, percentile, provenance
}

// metricSet keeps reported numbers in the order they were added.
type metricSet struct{ list []metric }

func (m *metricSet) add(name string, value float64, unit string, detail ...string) {
	d := ""
	if len(detail) > 0 {
		d = detail[0]
	}
	m.list = append(m.list, metric{Value: value, Unit: unit, name: name, detail: d})
}

func (m *metricSet) byName() map[string]metric {
	out := make(map[string]metric, len(m.list))
	for _, x := range m.list {
		out[x.name] = x
	}
	return out
}

// median of the samples (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it,
// up to p90: the sample of rank min(n-10, ceil(9n/10)). Above p90 a
// sub-millisecond timing on a shared host reads whichever interruptions
// the run happened to catch, and does not repeat from run to run. Below
// 20 samples rank n-10 is not above the median, so the upper quartile
// (rank ceil(3n/4)) stands in: the maximum of a handful of samples would
// be the single slowest one.
func tail(xs []float64) (value float64, pct int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	k := min(n-10, (9*n+9)/10)
	if n < 20 {
		k = (3*n + 3) / 4
	}
	return s[k-1], 100 * k / n
}

// halves says how well a median repeats within a run: the medians of the
// first and the second half of the samples, in the order they were taken.
func halves(name string, xs []float64, scale float64, unit string) string {
	h := len(xs) / 2
	return fmt.Sprintf("%s halves: median of the first %d samples %.4g %s, of the last %d %.4g %s",
		name, h, median(xs[:h])*scale, unit, len(xs)-h, median(xs[h:])*scale, unit)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latency adds <prefix>_p50_ms and <prefix>_tail_ms for samples in
// seconds, naming the tail's percentile and the sample count.
func (m *metricSet) latency(prefix string, samples []float64) {
	v, pct := tail(samples)
	m.add(prefix+"_p50_ms", median(samples)*1e3, "ms", fmt.Sprintf("median of %d", len(samples)))
	m.add(prefix+"_tail_ms", v*1e3, "ms", fmt.Sprintf("p%d of %d", pct, len(samples)))
}

// timing adds the median of duration samples in the given unit.
func (m *metricSet) timing(name string, samples []float64, unit string) {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unit]
	m.add(name, median(samples)*scale, unit, fmt.Sprintf("median of %d", len(samples)))
}

func (m *metricSet) count(name string, n float64) { m.add(name, n, "count") }

// runtimeCounters is a snapshot of the process-wide counters a measured
// phase is charged with.
type runtimeCounters struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcCPU      float64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

// phase is one measured repetition: its host time and what the runtime
// charged to it.
type phase struct {
	wall     float64 // seconds
	allocMB  float64
	mallocs  float64
	gcCycles float64
	gcCPU    float64
}

// measure runs fn from a freshly collected heap, so each repetition
// starts from the same state, and charges it with host time and the
// runtime's allocation and GC counters.
func measure(fn func() error) (phase, error) {
	runtime.GC()
	before := readCounters()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	after := readCounters()
	return phase{
		wall:     wall,
		allocMB:  float64(after.allocBytes-before.allocBytes) / (1 << 20),
		mallocs:  float64(after.mallocs - before.mallocs),
		gcCycles: float64(after.gcCycles - before.gcCycles),
		gcCPU:    after.gcCPU - before.gcCPU,
	}, err
}

// phases collects repetitions and reports per-field medians.
type phases []phase

func (ps phases) field(f func(phase) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// addEndToEnd reports wall_s and alloc_mb as medians over repetitions;
// what names one repetition in the report line.
func (ps phases) addEndToEnd(m *metricSet, what string) {
	m.add("wall_s", median(ps.field(func(p phase) float64 { return p.wall })), "s",
		fmt.Sprintf("median of %d %s", len(ps), what))
	m.add("alloc_mb", median(ps.field(func(p phase) float64 { return p.allocMB })), "MB",
		fmt.Sprintf("median of %d %s", len(ps), what))
}

// addRuntime reports the runtime layer's per-repetition medians.
func (ps phases) addRuntime(m *metricSet) {
	m.add("runtime.gc_cycles", median(ps.field(func(p phase) float64 { return p.gcCycles })), "count")
	m.add("runtime.gc_cpu_s", median(ps.field(func(p phase) float64 { return p.gcCPU })), "s")
	m.add("runtime.mallocs", median(ps.field(func(p phase) float64 { return p.mallocs })), "count")
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timed runs fn and returns its host time in seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// repeatFor calls fn with rep = 0, 1, ... until budget has elapsed,
// at least once.
func repeatFor(budget time.Duration, fn func(rep int) error) error {
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		if err := fn(rep); err != nil {
			return err
		}
	}
	return nil
}
