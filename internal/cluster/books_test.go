package cluster_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/osid"
	"repro/internal/workload"
)

// TestSwitchAndJobBooks pins what a member's books report after a run
// that lands OS switches, suffers an injected boot failure and reimages
// a healthy node: the switch records, the switch overhead, the
// completed and unfinished job counts (mid-run and drained) and the
// grid's routed counts, and its event log against
// testdata/books_events.golden. The census and the recorder's job rows are the
// only copy of these facts, so every figure here is read from one of
// them; a change to any figure is a change to what a run reports.
func TestSwitchAndJobBooks(t *testing.T) {
	g, err := grid.New(grid.RouteLeastLoaded, []grid.MemberSpec{
		{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 6,
			Cycle: 5 * time.Minute, Seed: 4, BootFailureProb: 0.3}},
		{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The Windows jobs are wider than the hybrid's two Windows nodes,
	// so its queue sticks and the controller switches Linux nodes over.
	trace := workload.Merge(
		workload.Burst(workload.BurstConfig{Start: 0, Jobs: 6, Gap: 10 * time.Minute, App: "DL_POLY",
			OS: osid.Linux, Nodes: 1, PPN: 4, Runtime: time.Hour, Owner: "md"}),
		workload.Burst(workload.BurstConfig{Start: 20 * time.Minute, Jobs: 4, Gap: 30 * time.Minute, App: "Backburner",
			OS: osid.Windows, Nodes: 3, PPN: 4, Runtime: time.Hour, Owner: "render"}),
	)
	if err := g.ScheduleTrace(trace); err != nil {
		t.Fatal(err)
	}
	m, _ := g.Member("eridani")
	c := m.Cluster
	g.Eng.At(15*time.Minute, func() {
		if _, err := c.ReimageWindows("eridani-enode02", true); err != nil {
			t.Errorf("reimage: %v", err)
		}
	})

	g.Eng.RunUntil(90 * time.Minute)
	if got, want := [2]int{c.Rec.Completed(), c.Rec.Unfinished()}, [2]int{4, 3}; got != want {
		t.Errorf("at 90m completed, unfinished = %v, want %v", got, want)
	}
	g.RunUntilDrained(7 * 24 * time.Hour)

	var b strings.Builder
	for _, s := range c.Rec.Switches() {
		fmt.Fprintf(&b, "%s %s>%s %v..%v %v\n", s.Node, s.From, s.To, s.Started, s.Finished, s.OK)
	}
	const wantSwitches = `eridani-enode02 linux>none 15m0s..17m32.814408688s true
eridani-enode03 linux>windows 20m10.001s..20m40.001s false
eridani-enode05 linux>windows 20m10.001s..24m18.552203138s true
eridani-enode04 linux>windows 20m10.001s..24m39.701847323s true
`
	if b.String() != wantSwitches {
		t.Errorf("switch records:\n%s\nwant\n%s", b.String(), wantSwitches)
	}
	if got, want := c.Summary().SwitchOverhead, 0.005525933658451156; got != want {
		t.Errorf("switch overhead %v, want %v", got, want)
	}
	if got, want := [2]int{c.Rec.Completed(), c.Rec.Unfinished()}, [2]int{8, 0}; got != want {
		t.Errorf("drained completed, unfinished = %v, want %v", got, want)
	}
	if got, want := g.RoutedCounts(), map[string]int{"eridani": 8, "tauceti": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("routed %v, want %v", got, want)
	}

	b.Reset()
	for _, e := range c.Events() {
		fmt.Fprintf(&b, "%v %s\n", e.At, e.What)
	}
	checkGolden(t, "books_events.golden", b.String())
}

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// checkGolden compares got against testdata/name, rewriting the file
// under -update (go test ./internal/cluster -run SwitchAndJobBooks
// -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n%s\nwant\n%s", name, got, want)
	}
}
