package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share Req; Parent names the enclosing
// span (0 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory and a CPU profile on disk for a traced
// run, and writes both out when the run ends. Every method is a no-op on
// a nil tracer, which is what an untraced run carries.
type tracer struct {
	dir   string
	t0    time.Time
	spans []span
	prof  *os.File
}

func newTracer(dir string) *tracer { return &tracer{dir: dir, t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// durations returns the durations in seconds of every span with the
// given name. Every span is closed by the time a run reports.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) startProfile() error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(t.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

// stopProfile ends the CPU profile, so that work done after the measured
// phase (output checks) stays out of the shares.
func (t *tracer) stopProfile() error {
	if t == nil || t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.prof.Close()
	t.prof = nil
	return err
}

// sharePackages are the layers whose sampled CPU self-time the traced
// run reports: this repository's modules plus the runtime and the
// standard-library packages the service path spends time in.
var sharePackages = append(append([]string(nil), repoLayers...),
	"runtime", "net_http", "encoding_json", "syscall")

// repoLayers are the packages under repro/internal reported by name;
// the others count as "other".
var repoLayers = []string{
	"simtime", "pbs", "winhpc", "cluster", "controller", "bootmgr", "metrics",
	"workload", "grid", "sweep", "service", "export",
}

// layerOf maps a profiled function name to its reported layer, or
// "other".
func layerOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime" // assembly symbols such as aeshashbody carry no package
	}
	pkgPath := packagePath(fn)
	if p, ok := strings.CutPrefix(pkgPath, "repro/internal/"); ok {
		for _, l := range repoLayers {
			if p == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkgPath == "syscall" || strings.HasPrefix(pkgPath, "internal/syscall/") || pkgPath == "internal/runtime/syscall":
		return "syscall"
	case pkgPath == "runtime" || strings.HasPrefix(pkgPath, "runtime/") || strings.HasPrefix(pkgPath, "internal/runtime/"):
		return "runtime"
	case pkgPath == "net/http" || strings.HasPrefix(pkgPath, "net/http/"):
		return "net_http"
	case pkgPath == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// packagePath extracts the import path from a symbol name such as
// "repro/internal/pbs.(*Server).schedule".
func packagePath(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// finish stops the profile, writes spans.jsonl and cpu_share.txt next to
// cpu.pprof, and returns each layer's share of the profile's samples.
func (t *tracer) finish() (map[string]float64, error) {
	if err := t.stopProfile(); err != nil {
		return nil, err
	}
	if err := t.writeSpans(); err != nil {
		return nil, err
	}
	selfSamples, err := flatSamples(filepath.Join(t.dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	var total int64
	byLayer := map[string]int64{}
	for fn, n := range selfSamples {
		total += n
		byLayer[layerOf(fn)] += n
	}
	shares := map[string]float64{}
	if total > 0 {
		for l, n := range byLayer {
			shares[l] = float64(n) / float64(total)
		}
	}
	return shares, t.writeShares(total, byLayer, selfSamples)
}

// flatSamples reads a CPU profile with `go tool pprof -top` and returns
// the samples charged to each function as its own (flat) time. An inlined
// function counts as itself, not as the function it was inlined into.
func flatSamples(profile string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-top",
		"-nodecount=1000000", "-nodefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	out := map[string]int64{}
	rows := false
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "flat":
			rows = true // the column header; function rows follow
		case rows && len(f) >= 6:
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof row %q: %v", line, err)
			}
			fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
			out[fn] += n
		}
	}
	return out, nil
}

func (t *tracer) writeSpans() error {
	f, err := os.Create(filepath.Join(t.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeShares writes the per-layer table and the top self-time
// functions. Shares are sampled (100 Hz CPU profile), not measured.
func (t *tracer) writeShares(total int64, byLayer, byFunc map[string]int64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# sampled CPU self-time shares, %d profile samples\n", total)
	fmt.Fprintf(&b, "%-16s %8s %8s\n", "layer", "samples", "share")
	layers := append(append([]string(nil), sharePackages...), "other")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-16s %8d %8.4f\n", l, byLayer[l], ratio(byLayer[l], total))
	}
	fns := make([]string, 0, len(byFunc))
	for fn := range byFunc {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if byFunc[fns[i]] != byFunc[fns[j]] {
			return byFunc[fns[i]] > byFunc[fns[j]]
		}
		return fns[i] < fns[j]
	})
	fmt.Fprintf(&b, "\n# top self-time functions\n")
	for _, fn := range fns[:min(25, len(fns))] {
		fmt.Fprintf(&b, "%8d %8.4f  %s\n", byFunc[fn], ratio(byFunc[fn], total), fn)
	}
	return os.WriteFile(filepath.Join(t.dir, "cpu_share.txt"), []byte(b.String()), 0o644)
}

func ratio(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
