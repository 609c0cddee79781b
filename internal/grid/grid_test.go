package grid

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/osid"
	"repro/internal/workload"
)

func threeMemberSpecs() []MemberSpec {
	return []MemberSpec{
		{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 4, Cycle: 5 * time.Minute}},
		{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8}}, // Linux-only
		{Name: "vega", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: -1}},   // Windows-only
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(RouteLeastLoaded, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	// A sole member may go unnamed — that is how a single cluster runs —
	// and keeps the cluster's own node and head names.
	g, err := New(RouteLeastLoaded, []MemberSpec{{Config: cluster.Config{Mode: cluster.Static, Nodes: 2}}})
	if err != nil {
		t.Fatalf("unnamed sole member rejected: %v", err)
	}
	if c := g.Members()[0].Cluster; c.Nodes()[0].HW.Name != "enode01" || c.PBS.Name() != "eridani.qgg.hud.ac.uk" {
		t.Fatalf("unnamed member named %s on %s", c.Nodes()[0].HW.Name, c.PBS.Name())
	}
	unnamed := []MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 2}},
		{Config: cluster.Config{Mode: cluster.Static, Nodes: 2}},
	}
	if _, err := New(RouteLeastLoaded, unnamed); err == nil {
		t.Fatal("unnamed member among several accepted")
	}
	specs := []MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 2}},
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 2}},
	}
	if _, err := New(RouteLeastLoaded, specs); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestMembersShareOneClock(t *testing.T) {
	g, err := New(RouteLeastLoaded, threeMemberSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range g.Members() {
		if m.Cluster.Eng != g.Eng {
			t.Fatalf("member %s has a private engine", m.Name)
		}
	}
}

func TestNodeNamesAndMACsDistinct(t *testing.T) {
	g, err := New(RouteLeastLoaded, threeMemberSpecs())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	macs := map[string]bool{}
	for _, m := range g.Members() {
		for _, n := range m.Cluster.Nodes() {
			if names[n.HW.Name] {
				t.Fatalf("duplicate node name %s", n.HW.Name)
			}
			names[n.HW.Name] = true
			if macs[n.HW.Addr.String()] {
				t.Fatalf("duplicate MAC %s", n.HW.Addr)
			}
			macs[n.HW.Addr.String()] = true
		}
	}
}

func TestCanServe(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "hybrid", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 2}},
		{Name: "linonly", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, _ := g.Member("hybrid")
	linonly, _ := g.Member("linonly")
	if !hybrid.CanServe(osid.Windows) || !hybrid.CanServe(osid.Linux) {
		t.Fatal("hybrid should serve both")
	}
	if linonly.CanServe(osid.Windows) {
		t.Fatal("linux-only cluster claims windows")
	}
	if !linonly.CanServe(osid.Linux) {
		t.Fatal("linux-only cluster denies linux")
	}
	if hybrid.CanServe(osid.None) {
		t.Fatal("CanServe(None)")
	}
}

func TestRouteCapability(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "linonly", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "hybrid", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 2, Cycle: 5 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	winJob := workload.Job{App: "Opera", OS: osid.Windows, Owner: "u", Nodes: 1, PPN: 4, Runtime: time.Hour}
	m, err := g.Route(winJob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "hybrid" {
		t.Fatalf("windows job routed to %s", m.Name)
	}
}

func TestRouteDropsUnservable(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "linonly", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	winJob := workload.Job{App: "Opera", OS: osid.Windows, Owner: "u", Nodes: 1, PPN: 4, Runtime: time.Hour}
	if _, err := g.Route(winJob); !errors.Is(err, ErrUnservable) {
		t.Fatalf("unservable job: err %v, want ErrUnservable", err)
	}
	if g.Dropped() != 1 {
		t.Fatalf("dropped = %d", g.Dropped())
	}
}

func TestRouteFallsBackWhenTooWide(t *testing.T) {
	// A 6-node job is too wide for the 4-node member but fits the
	// 8-node one; capability filtering alone cannot know that, so the
	// router must retry on submit failure.
	g, err := New(RouteRoundRobin, []MemberSpec{
		{Name: "small", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "large", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wide := workload.Job{App: "LAMMPS", OS: osid.Linux, Owner: "u", Nodes: 6, PPN: 4, Runtime: time.Hour}
	m, err := g.Route(wide)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "large" {
		t.Fatalf("wide job routed to %s", m.Name)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	g, err := New(RouteRoundRobin, []MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "b", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j := workload.Job{App: "GULP", OS: osid.Linux, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}
		if _, err := g.Route(j); err != nil {
			t.Fatal(err)
		}
	}
	counts := g.RoutedCounts()
	if counts["a"] != 2 || counts["b"] != 2 {
		t.Fatalf("round robin = %v", counts)
	}
}

func TestHybridLastPrefersStatics(t *testing.T) {
	g, err := New(RouteHybridLast, []MemberSpec{
		{Name: "hybrid", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 4, Cycle: 5 * time.Minute}},
		{Name: "linonly", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := workload.Job{App: "GULP", OS: osid.Linux, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}
	m, err := g.Route(j)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "linonly" {
		t.Fatalf("hybrid-last routed to %s", m.Name)
	}
	// Windows work has no static home here, so it overflows to the hybrid.
	w := workload.Job{App: "Opera", OS: osid.Windows, Owner: "u", Nodes: 1, PPN: 4, Runtime: time.Hour}
	m, err = g.Route(w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "hybrid" {
		t.Fatalf("windows overflow routed to %s", m.Name)
	}
}

func TestGridEndToEnd(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 8, Cycle: 5 * time.Minute}},
		{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Merge(
		workload.Burst(workload.BurstConfig{Start: 0, Jobs: 4, Gap: time.Minute, App: "DL_POLY",
			OS: osid.Linux, Nodes: 2, PPN: 4, Runtime: time.Hour, Owner: "md"}),
		workload.Burst(workload.BurstConfig{Start: 10 * time.Minute, Jobs: 2, Gap: time.Minute, App: "Opera",
			OS: osid.Windows, Nodes: 1, PPN: 4, Runtime: time.Hour, Owner: "em"}),
	)
	if err := g.ScheduleTrace(trace); err != nil {
		t.Fatal(err)
	}
	g.RunUntilDrained(48 * time.Hour)

	totalDone := 0
	for _, m := range g.Members() {
		s := m.Cluster.Summary()
		totalDone += s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
	}
	if totalDone != len(trace) {
		t.Fatalf("grid completed %d of %d", totalDone, len(trace))
	}
	if g.Dropped() != 0 {
		t.Fatalf("dropped = %d", g.Dropped())
	}
	report := g.Report()
	for _, want := range []string{"eridani", "tauceti", "hybrid-v2", "static-split"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if RouteLeastLoaded.String() != "least-loaded" || RouteRoundRobin.String() != "round-robin" ||
		RouteHybridLast.String() != "hybrid-last" {
		t.Fatal("policy strings wrong")
	}
}

// Regression (determinism contract): tie-breaks resolve to the first
// member in spec order, and a whole grid run replayed from scratch
// routes and reports identically.
func TestLeastLoadedTieBreaksToFirstMember(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "alpha", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "beta", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both members idle: identical zero load, every pick must land on
	// the first member (its queue grows, so later picks may differ —
	// assert only the very first, repeated across fresh grids).
	j := workload.Job{App: "GULP", OS: osid.Linux, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}
	m, err := g.Route(j)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "alpha" {
		t.Fatalf("tie broke to %s, want the first member", m.Name)
	}
}

func TestGridRunIsDeterministic(t *testing.T) {
	build := func() *Grid {
		g, err := New(RouteLeastLoaded, []MemberSpec{
			{Name: "eridani", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8, InitialLinux: 4, Cycle: 5 * time.Minute, Seed: 7}},
			{Name: "tauceti", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8, Seed: 7}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func() (map[string]int, []int, string) {
		g := build()
		trace := workload.Merge(
			workload.Poisson(workload.PoissonConfig{Seed: 5, Duration: 8 * time.Hour, JobsPerHour: 4, WindowsFrac: 0.3, MaxNodes: 3}),
		)
		if err := g.ScheduleTrace(trace); err != nil {
			t.Fatal(err)
		}
		g.RunUntilDrained(48 * time.Hour)
		var completed []int
		for _, m := range g.Members() {
			completed = append(completed, m.Cluster.Rec.Completed())
		}
		return g.RoutedCounts(), completed, g.Report()
	}
	r1, c1, rep1 := run()
	r2, c2, rep2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("routing diverged between identical runs:\n%v\nvs\n%v", r1, r2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("completions diverged: %v vs %v", c1, c2)
	}
	if rep1 != rep2 {
		t.Fatalf("report diverged:\n%s\nvs\n%s", rep1, rep2)
	}
}

// Route edge paths: every drop bumps the counter, hybrid-last with no
// statics falls back to the hybrids, and round-robin wraps around its
// candidate list.
func TestRouteDropCounterAccumulates(t *testing.T) {
	g, err := New(RouteLeastLoaded, []MemberSpec{
		{Name: "linonly", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	win := workload.Job{App: "Opera", OS: osid.Windows, Owner: "u", Nodes: 1, PPN: 4, Runtime: time.Hour}
	for i := 0; i < 3; i++ {
		if _, err := g.Route(win); err == nil {
			t.Fatal("unservable job routed")
		}
	}
	// An invalid OS is unservable by definition.
	if _, err := g.Route(workload.Job{App: "x", OS: osid.None, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}); err == nil {
		t.Fatal("OS-less job routed")
	}
	if g.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", g.Dropped())
	}
}

func TestHybridLastFallsBackToHybridsWhenNoStatics(t *testing.T) {
	g, err := New(RouteHybridLast, []MemberSpec{
		{Name: "h1", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 2, Cycle: 5 * time.Minute}},
		{Name: "h2", Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 4, InitialLinux: 2, Cycle: 5 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := workload.Job{App: "GULP", OS: osid.Linux, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}
	m, err := g.Route(j)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "h1" {
		t.Fatalf("all-hybrid fallback picked %s, want first member", m.Name)
	}
}

func TestRoundRobinWrapsAround(t *testing.T) {
	g, err := New(RouteRoundRobin, []MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "b", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < 5; i++ {
		j := workload.Job{App: "GULP", OS: osid.Linux, Owner: "u", Nodes: 1, PPN: 1, Runtime: time.Hour}
		m, err := g.Route(j)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, m.Name)
	}
	want := []string{"a", "b", "a", "b", "a"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("round robin order = %v, want %v", order, want)
	}
	counts := g.RoutedCounts()
	if counts["a"] != 3 || counts["b"] != 2 {
		t.Fatalf("wraparound counts = %v", counts)
	}
}

// Each member's recorder completes every job routed to it: after a
// drained run its completed count matches its routed total.
func TestCompletedCountsTrackRoutedJobs(t *testing.T) {
	g, err := New(RouteRoundRobin, []MemberSpec{
		{Name: "a", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
		{Name: "b", Config: cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 4, Gap: time.Minute, App: "GULP",
		OS: osid.Linux, Nodes: 1, PPN: 2, Runtime: time.Hour, Owner: "chem",
	})
	if err := g.ScheduleTrace(trace); err != nil {
		t.Fatal(err)
	}
	g.RunUntilDrained(24 * time.Hour)
	routed := g.RoutedCounts()
	for _, m := range g.Members() {
		if got := m.Cluster.Rec.Completed(); got == 0 || got != routed[m.Name] {
			t.Errorf("member %q completed %d, routed %d", m.Name, got, routed[m.Name])
		}
	}
}

// TestRefusalRule pins Route's one rule for a job that gets nowhere, on
// a one-member grid and on the campus. A one-node Linux job arrives
// first, then job. A job whose OS no member's configuration can serve
// is Dropped and booked by no member. A job every capable member's
// scheduler refuses is one submit failure, not a drop, booked and
// logged on the router's first choice: on the campus that is tauceti, neither
// the first nor the last capable member, but the least loaded once the
// first job went to eridani.
func TestRefusalRule(t *testing.T) {
	linux := func(at time.Duration, nodes int) workload.Job {
		return workload.Job{At: at, App: "LAMMPS", OS: osid.Linux, Owner: "u", Nodes: nodes, PPN: 4, Runtime: time.Hour}
	}
	windowsOnly := cluster.Config{Mode: cluster.Static, Nodes: 4, InitialLinux: -1}
	cases := []struct {
		name    string
		specs   []MemberSpec
		nodes   int    // the second job's width
		dropped int    // jobs dropped
		failed  string // the member booking a submit failure, if any
	}{
		{"one-member/no-capable", []MemberSpec{{Config: windowsOnly}}, 1, 2, ""},
		{"one-member/all-refuse", []MemberSpec{{Config: cluster.Config{Mode: cluster.HybridV2, Nodes: 8}}}, 64, 0, ""},
		{"campus/no-capable", []MemberSpec{{Name: "vega", Config: windowsOnly}, {Name: "rigel", Config: windowsOnly}}, 1, 2, ""},
		{"campus/all-refuse", []MemberSpec{threeMemberSpecs()[0], threeMemberSpecs()[1],
			{Name: "altair", Config: cluster.Config{Mode: cluster.Static, Nodes: 8, InitialLinux: 8}}}, 64, 0, "tauceti"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(RouteLeastLoaded, tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.ScheduleTrace(workload.Trace{linux(0, 1), linux(time.Minute, tc.nodes)}); err != nil {
				t.Fatal(err)
			}
			g.RunUntilDrained(24 * time.Hour)

			wantFailed := map[string]int{}
			if tc.dropped == 0 {
				wantFailed[tc.failed] = 1
			}
			if g.Dropped() != tc.dropped {
				t.Errorf("dropped = %d, want %d", g.Dropped(), tc.dropped)
			}
			for _, m := range g.Members() {
				if got := m.Cluster.Summary().SubmitFailures; got != wantFailed[m.Name] {
					t.Errorf("member %q: SubmitFailures = %d, want %d", m.Name, got, wantFailed[m.Name])
				}
				logged := 0
				for _, e := range m.Cluster.Events() {
					if strings.HasPrefix(e.What, "submit ") {
						if !strings.HasPrefix(e.What, "submit LAMMPS failed: ") {
							t.Errorf("member %q logged %q", m.Name, e.What)
						}
						logged++
					}
				}
				if logged != wantFailed[m.Name] {
					t.Errorf("member %q: %d submit failure lines logged, want %d", m.Name, logged, wantFailed[m.Name])
				}
			}
		})
	}
}

// TestSnapshotSumsMembers: the grid's snapshot is the sum of its
// members' at the current instant.
func TestSnapshotSumsMembers(t *testing.T) {
	g, err := New(RouteLeastLoaded, threeMemberSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ScheduleTrace(collidingTrace(16, osid.Windows, 30)); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{0, 7 * time.Minute, 42 * time.Minute, 3 * time.Hour} {
		g.Eng.RunUntil(at)
		var want cluster.Snapshot
		for _, m := range g.Members() {
			s := m.Cluster.TakeSnapshot()
			want.LinuxNodes += s.LinuxNodes
			want.WindowsNodes += s.WindowsNodes
			want.Switching += s.Switching
			want.Broken += s.Broken
			want.LinuxRunning += s.LinuxRunning
			want.LinuxQueued += s.LinuxQueued
			want.WindowsQueued += s.WindowsQueued
			want.WindowsRun += s.WindowsRun
		}
		want.At = at
		if got := g.Snapshot(); got != want {
			t.Fatalf("at %v: snapshot %+v, want %+v", at, got, want)
		}
		if want.LinuxNodes+want.WindowsNodes+want.Switching+want.Broken != 24 {
			t.Fatalf("at %v: node conservation violated: %+v", at, want)
		}
	}
}
