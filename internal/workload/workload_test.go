package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/osid"
)

func TestCatalogMatchesTableI(t *testing.T) {
	if len(Catalog) != 15 {
		t.Fatalf("catalog entries = %d, Table I lists 15", len(Catalog))
	}
	want := map[string]Platform{
		"Abaqus": LinuxOnly, "Amber": LinuxOnly, "Backburner": WindowsOnly,
		"Blender": LinuxOnly, "CASTEP": LinuxOnly, "COMSOL": Both,
		"DL_POLY": LinuxOnly, "ANSYS FLUENT": Both, "GAMESS-UK": LinuxOnly,
		"GULP": LinuxOnly, "LAMMPS": LinuxOnly, "MATLAB": Both,
		"METADISE": LinuxOnly, "NWChem": LinuxOnly, "Opera": WindowsOnly,
	}
	for name, platform := range want {
		app, ok := AppByName(name)
		if !ok {
			t.Errorf("missing app %s", name)
			continue
		}
		if app.Platform != platform {
			t.Errorf("%s platform = %v, want %v", name, app.Platform, platform)
		}
	}
}

func TestCatalogPlatformCounts(t *testing.T) {
	// Table I: 10 Linux-only, 2 Windows-only, 3 both.
	if n := len(CatalogByPlatform(LinuxOnly)); n != 10 {
		t.Errorf("linux-only = %d, want 10", n)
	}
	if n := len(CatalogByPlatform(WindowsOnly)); n != 2 {
		t.Errorf("windows-only = %d, want 2", n)
	}
	if n := len(CatalogByPlatform(Both)); n != 3 {
		t.Errorf("both = %d, want 3", n)
	}
}

func TestAppByNameMissing(t *testing.T) {
	if _, ok := AppByName("Fortnite"); ok {
		t.Fatal("found nonexistent app")
	}
}

func TestPlatformString(t *testing.T) {
	if LinuxOnly.String() != "L" || WindowsOnly.String() != "W" || Both.String() != "W&L" {
		t.Fatal("platform strings wrong")
	}
}

func TestCatalogShapesSane(t *testing.T) {
	for _, a := range Catalog {
		if a.TypicalNodes <= 0 || a.TypicalPPN <= 0 || a.TypicalPPN > 4 {
			t.Errorf("%s shape %d:%d invalid", a.Name, a.TypicalNodes, a.TypicalPPN)
		}
		if a.TypicalRuntime <= 0 {
			t.Errorf("%s runtime %v invalid", a.Name, a.TypicalRuntime)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	cfg := PoissonConfig{Seed: 7, Duration: 24 * time.Hour, JobsPerHour: 4, WindowsFrac: 0.4}
	a := Poisson(cfg)
	b := Poisson(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestPoissonSeedChangesTrace(t *testing.T) {
	cfg := PoissonConfig{Seed: 1, Duration: 24 * time.Hour, JobsPerHour: 4, WindowsFrac: 0.4}
	a := Poisson(cfg)
	cfg.Seed = 2
	b := Poisson(cfg)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPoissonValidAndSorted(t *testing.T) {
	trace := Poisson(PoissonConfig{Seed: 3, Duration: 48 * time.Hour, JobsPerHour: 6, WindowsFrac: 0.3})
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if trace.Span() > 48*time.Hour {
		t.Fatalf("span = %v", trace.Span())
	}
}

func TestPoissonOSRouting(t *testing.T) {
	trace := Poisson(PoissonConfig{Seed: 5, Duration: 100 * time.Hour, JobsPerHour: 10, WindowsFrac: 0.5})
	for _, j := range trace {
		app, ok := AppByName(j.App)
		if !ok {
			t.Fatalf("unknown app %q in trace", j.App)
		}
		switch app.Platform {
		case LinuxOnly:
			if j.OS != osid.Linux {
				t.Fatalf("%s routed to %v", j.App, j.OS)
			}
		case WindowsOnly:
			if j.OS != osid.Windows {
				t.Fatalf("%s routed to %v", j.App, j.OS)
			}
		}
	}
	byOS := trace.CountByOS()
	if byOS[osid.Linux] == 0 || byOS[osid.Windows] == 0 {
		t.Fatalf("mix = %v", byOS)
	}
}

func TestPoissonWindowsFracExtremes(t *testing.T) {
	all := Poisson(PoissonConfig{Seed: 1, Duration: 50 * time.Hour, JobsPerHour: 5, WindowsFrac: 1})
	if n := all.CountByOS()[osid.Linux]; n != 0 {
		t.Fatalf("frac=1 produced %d linux jobs", n)
	}
	none := Poisson(PoissonConfig{Seed: 1, Duration: 50 * time.Hour, JobsPerHour: 5, WindowsFrac: 0})
	if n := none.CountByOS()[osid.Windows]; n != 0 {
		t.Fatalf("frac=0 produced %d windows jobs", n)
	}
}

func TestPoissonMaxNodesCap(t *testing.T) {
	trace := Poisson(PoissonConfig{Seed: 2, Duration: 100 * time.Hour, JobsPerHour: 5, WindowsFrac: 0.2, MaxNodes: 2})
	for _, j := range trace {
		if j.Nodes > 2 {
			t.Fatalf("job %s has %d nodes", j.App, j.Nodes)
		}
	}
}

func TestPoissonEmptyConfigs(t *testing.T) {
	if Poisson(PoissonConfig{}) != nil {
		t.Fatal("zero config produced jobs")
	}
	if Poisson(PoissonConfig{Duration: time.Hour}) != nil {
		t.Fatal("zero rate produced jobs")
	}
}

func TestPoissonRateApproximation(t *testing.T) {
	trace := Poisson(PoissonConfig{Seed: 11, Duration: 1000 * time.Hour, JobsPerHour: 8, WindowsFrac: 0.5})
	perHour := float64(len(trace)) / 1000
	if perHour < 7 || perHour > 9 {
		t.Fatalf("rate = %.2f jobs/hour, want ≈8", perHour)
	}
}

// The size hint covers what Poisson generates, so a trace is built in
// one allocation, and it is capped for an outsized rate.
func TestPoissonSizeHint(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := PoissonConfig{Seed: seed, Duration: 100 * time.Hour, JobsPerHour: 50, WindowsFrac: 0.3}
		if n, hint := len(Poisson(cfg)), poissonSizeHint(cfg); n > hint {
			t.Fatalf("seed %d: %d jobs, hint %d", seed, n, hint)
		}
	}
	for _, rate := range []float64{1e9, math.Inf(1)} {
		if hint := poissonSizeHint(PoissonConfig{Duration: time.Hour, JobsPerHour: rate}); hint != maxPoissonHint {
			t.Fatalf("rate %v: hint %d, want the cap %d", rate, hint, maxPoissonHint)
		}
	}
}

func TestBurst(t *testing.T) {
	b := Burst(BurstConfig{Start: time.Hour, Jobs: 5, Gap: time.Minute, App: "MATLAB",
		OS: osid.Windows, Nodes: 2, PPN: 4, Runtime: 30 * time.Minute, Owner: "u"})
	if len(b) != 5 {
		t.Fatalf("burst = %d jobs", len(b))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b[0].At != time.Hour || b[4].At != time.Hour+4*time.Minute {
		t.Fatalf("times = %v .. %v", b[0].At, b[4].At)
	}
}

func TestMatlabGACase(t *testing.T) {
	trace := MatlabGACase(9)
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	byOS := trace.CountByOS()
	if byOS[osid.Windows] != 10 {
		t.Fatalf("GA burst = %d windows jobs, want 10", byOS[osid.Windows])
	}
	if byOS[osid.Linux] == 0 {
		t.Fatal("no linux background")
	}
	// All Windows jobs are MATLAB in the case study.
	for _, j := range trace {
		if j.OS == osid.Windows && j.App != "MATLAB" {
			t.Fatalf("windows job is %s", j.App)
		}
	}
}

func TestMergeSorts(t *testing.T) {
	a := Burst(BurstConfig{Start: 2 * time.Hour, Jobs: 2, Gap: time.Minute, App: "Opera",
		OS: osid.Windows, Nodes: 1, PPN: 4, Runtime: time.Hour})
	b := Burst(BurstConfig{Start: time.Hour, Jobs: 2, Gap: time.Minute, App: "GULP",
		OS: osid.Linux, Nodes: 1, PPN: 2, Runtime: time.Hour})
	m := Merge(a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[0].App != "GULP" {
		t.Fatalf("merge order wrong: %v", m[0])
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{At: 0, App: "x", OS: osid.Linux, Nodes: 1, PPN: 1, Runtime: time.Minute}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{At: 0, App: "x", OS: osid.None, Nodes: 1, PPN: 1, Runtime: time.Minute},
		{At: 0, App: "x", OS: osid.Linux, Nodes: 0, PPN: 1, Runtime: time.Minute},
		{At: 0, App: "x", OS: osid.Linux, Nodes: 1, PPN: 0, Runtime: time.Minute},
		{At: 0, App: "x", OS: osid.Linux, Nodes: 1, PPN: 1, Runtime: 0},
		{At: -time.Second, App: "x", OS: osid.Linux, Nodes: 1, PPN: 1, Runtime: time.Minute},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d validated", i)
		}
	}
}

func TestTraceValidateOrdering(t *testing.T) {
	tr := Trace{
		{At: time.Hour, App: "a", OS: osid.Linux, Nodes: 1, PPN: 1, Runtime: time.Minute},
		{At: time.Minute, App: "b", OS: osid.Linux, Nodes: 1, PPN: 1, Runtime: time.Minute},
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("unsorted trace validated")
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhasedWideMix(t *testing.T) {
	trace := PhasedWideMix(PhasedConfig{Seed: 4, Phases: 8, WindowsFrac: 0.5})
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 8*4 {
		t.Fatalf("jobs = %d, want 32", len(trace))
	}
	wide := 0
	for _, j := range trace {
		if j.Nodes == 10 {
			wide++
		}
	}
	if wide != 8 {
		t.Fatalf("wide jobs = %d, want one per phase", wide)
	}
	byOS := trace.CountByOS()
	if byOS[osid.Windows] != 16 || byOS[osid.Linux] != 16 {
		t.Fatalf("mix = %v", byOS)
	}
}

func TestPhasedWideMixFracExtremes(t *testing.T) {
	all := PhasedWideMix(PhasedConfig{Seed: 1, Phases: 4, WindowsFrac: 1})
	if all.CountByOS()[osid.Linux] != 0 {
		t.Fatal("frac=1 produced linux phases")
	}
	none := PhasedWideMix(PhasedConfig{Seed: 1, Phases: 4, WindowsFrac: 0})
	if none.CountByOS()[osid.Windows] != 0 {
		t.Fatal("frac=0 produced windows phases")
	}
}

func TestPhasedWideMixDeterministic(t *testing.T) {
	a := PhasedWideMix(PhasedConfig{Seed: 2, WindowsFrac: 0.25})
	b := PhasedWideMix(PhasedConfig{Seed: 2, WindowsFrac: 0.25})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

// Property: Poisson traces are always valid for any seed/mix.
func TestQuickPoissonValid(t *testing.T) {
	f := func(seed int64, fracByte uint8) bool {
		frac := float64(fracByte) / 255
		trace := Poisson(PoissonConfig{Seed: seed, Duration: 20 * time.Hour, JobsPerHour: 5, WindowsFrac: frac})
		return trace.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
