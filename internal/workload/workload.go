// Package workload generates the job streams the experiments run:
// the application catalog of the paper's Table I, Poisson arrival
// mixes, bursty traces, and the MATLAB-MDCS genetic-algorithm case
// study of §IV-B. All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/osid"
)

// Platform is an application's OS support per Table I.
type Platform uint8

const (
	LinuxOnly Platform = iota
	WindowsOnly
	Both
)

// String renders the Table-I column value.
func (p Platform) String() string {
	switch p {
	case WindowsOnly:
		return "W"
	case Both:
		return "W&L"
	default:
		return "L"
	}
}

// App is one catalog entry.
type App struct {
	Name        string
	Description string
	Platform    Platform
	// Typical job shape on the Huddersfield campus cluster.
	TypicalNodes   int
	TypicalPPN     int
	TypicalRuntime time.Duration
}

// Catalog reproduces Table I: applications on the Huddersfield campus
// cluster with their OS requirement (W: Windows, L: Linux). Job shapes
// are this reproduction's calibration, not from the paper.
var Catalog = []App{
	{"Abaqus", "Finite Element Analysis", LinuxOnly, 1, 4, 2 * time.Hour},
	{"Amber", "Assisted Model Building with Energy Refinement aimed at biological systems", LinuxOnly, 2, 4, 6 * time.Hour},
	{"Backburner", "Rendering software for 3ds Max", WindowsOnly, 1, 4, 45 * time.Minute},
	{"Blender", "Open Source 3D Modeller and Renderer", LinuxOnly, 1, 4, 30 * time.Minute},
	{"CASTEP", "CAmbridge Sequential Total Energy Package", LinuxOnly, 2, 4, 4 * time.Hour},
	{"COMSOL", "Multiphysics Modelling, Finite Element Analysis, Engineering Simulation Software", Both, 1, 4, 90 * time.Minute},
	{"DL_POLY", "General purpose classical molecular dynamics (MD) simulation software", LinuxOnly, 4, 4, 8 * time.Hour},
	{"ANSYS FLUENT", "Computational Fluid Dynamics (CFD)", Both, 2, 4, 3 * time.Hour},
	{"GAMESS-UK", "Molecular QM code", LinuxOnly, 1, 4, 5 * time.Hour},
	{"GULP", "General Utility Lattice Program", LinuxOnly, 1, 2, time.Hour},
	{"LAMMPS", "Large-scale Atomic/Molecular Massively Parallel Simulator", LinuxOnly, 4, 4, 6 * time.Hour},
	{"MATLAB", "Numerical Computing Environment", Both, 1, 4, time.Hour},
	{"METADISE", "Minimum Energy Techniques Applied to Defects, Interfaces and Surface Energies", LinuxOnly, 1, 1, 40 * time.Minute},
	{"NWChem", "Multi-purpose QM and MM code", LinuxOnly, 2, 4, 4 * time.Hour},
	{"Opera", "Finite Element Analysis for Electromagnetics", WindowsOnly, 1, 4, 2 * time.Hour},
}

// AppByName finds a catalog entry.
func AppByName(name string) (App, bool) {
	for _, a := range Catalog {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// CatalogByPlatform filters the catalog.
func CatalogByPlatform(p Platform) []App {
	var out []App
	for _, a := range Catalog {
		if a.Platform == p {
			out = append(out, a)
		}
	}
	return out
}

// Job is one submission in a trace.
type Job struct {
	At      time.Duration // submission time
	App     string
	OS      osid.OS // resolved side (Both apps are pinned by the generator)
	Owner   string
	Nodes   int
	PPN     int
	Runtime time.Duration
}

// CPUs returns the job's processor demand.
func (j Job) CPUs() int { return j.Nodes * j.PPN }

// Validate checks a job for internal consistency.
func (j Job) Validate() error {
	if !j.OS.Valid() {
		return fmt.Errorf("workload: job %q has no OS", j.App)
	}
	if j.Nodes <= 0 || j.PPN <= 0 {
		return fmt.Errorf("workload: job %q has bad shape %d:%d", j.App, j.Nodes, j.PPN)
	}
	if j.Runtime <= 0 {
		return fmt.Errorf("workload: job %q has no runtime", j.App)
	}
	if j.At < 0 {
		return fmt.Errorf("workload: job %q submitted before time zero", j.App)
	}
	return nil
}

// Trace is an ordered job stream.
type Trace []Job

// Sort orders the trace by submission time (stable on ties).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].At < t[j].At })
}

// Validate checks every job and the time ordering.
func (t Trace) Validate() error {
	for i, j := range t {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		if i > 0 && j.At < t[i-1].At {
			return fmt.Errorf("workload: trace not sorted at %d", i)
		}
	}
	return nil
}

// Span returns the time of the last submission.
func (t Trace) Span() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].At
}

// CountByOS tallies jobs per side.
func (t Trace) CountByOS() map[osid.OS]int {
	out := map[osid.OS]int{}
	for _, j := range t {
		out[j.OS]++
	}
	return out
}

// PoissonConfig parameterises the mixed campus workload.
type PoissonConfig struct {
	Seed        int64
	Duration    time.Duration // submission window
	JobsPerHour float64
	WindowsFrac float64 // fraction of jobs routed to Windows (0..1)
	// RuntimeScale multiplies catalog runtimes (1.0 = as calibrated).
	RuntimeScale float64
	// MaxNodes caps job width so traces fit small clusters.
	MaxNodes int
}

// Poisson draws an arrival-process trace from the Table-I catalog.
// Windows-only apps are only used for the Windows share, Linux-only
// apps for the Linux share, and W&L apps fill both.
func Poisson(cfg PoissonConfig) Trace {
	if cfg.JobsPerHour <= 0 || cfg.Duration <= 0 {
		return nil
	}
	if cfg.RuntimeScale <= 0 {
		cfg.RuntimeScale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trace := make(Trace, 0, poissonSizeHint(cfg))
	winApps := append(CatalogByPlatform(WindowsOnly), CatalogByPlatform(Both)...)
	linApps := append(CatalogByPlatform(LinuxOnly), CatalogByPlatform(Both)...)

	meanGap := time.Duration(float64(time.Hour) / cfg.JobsPerHour)
	now := time.Duration(0)
	seq := 0
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
		now += gap
		if now > cfg.Duration {
			break
		}
		seq++
		var app App
		var os osid.OS
		if rng.Float64() < cfg.WindowsFrac {
			app = winApps[rng.Intn(len(winApps))]
			os = osid.Windows
		} else {
			app = linApps[rng.Intn(len(linApps))]
			os = osid.Linux
		}
		nodes := app.TypicalNodes
		if cfg.MaxNodes > 0 && nodes > cfg.MaxNodes {
			nodes = cfg.MaxNodes
		}
		// Log-normal-ish runtime scatter around the typical value.
		scatter := math.Exp(0.5 * rng.NormFloat64())
		runtime := time.Duration(float64(app.TypicalRuntime) * scatter * cfg.RuntimeScale)
		if runtime < time.Minute {
			runtime = time.Minute
		}
		trace = append(trace, Job{
			At:      now,
			App:     app.Name,
			OS:      os,
			Owner:   owners[rng.Intn(len(owners))],
			Nodes:   nodes,
			PPN:     app.TypicalPPN,
			Runtime: runtime,
		})
	}
	// No sort: every gap is non-negative, so now never falls and the
	// jobs are generated in submission order already.
	if len(trace) == 0 {
		return nil
	}
	return trace
}

// owners are the user names Poisson draws from: user01 … user12.
var owners = func() (names [12]string) {
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i+1)
	}
	return names
}()

// maxPoissonHint caps the up-front allocation of a Poisson trace at
// about 75 MB, room for the city tier's million jobs (E18: 2000 jobs/h
// for 500 h). Past it the trace grows by append, so an outsized rate
// or window costs only what it generates.
const maxPoissonHint = 1 << 20

// poissonSizeHint returns the expected job count of cfg plus four
// standard deviations of its Poisson count, capped at maxPoissonHint.
func poissonSizeHint(cfg PoissonConfig) int {
	mean := cfg.JobsPerHour * cfg.Duration.Hours()
	if !(mean < maxPoissonHint) { // also catches NaN
		return maxPoissonHint
	}
	return min(int(mean+4*math.Sqrt(mean))+16, maxPoissonHint)
}

// BurstConfig parameterises a demand burst on one side.
type BurstConfig struct {
	Start   time.Duration
	Jobs    int
	Gap     time.Duration // spacing between burst submissions
	App     string
	OS      osid.OS
	Nodes   int
	PPN     int
	Runtime time.Duration
	Owner   string
}

// Burst generates a rapid-fire run of similar jobs, e.g. a render
// farm batch or a parameter sweep.
func Burst(cfg BurstConfig) Trace {
	var trace Trace
	for i := 0; i < cfg.Jobs; i++ {
		trace = append(trace, Job{
			At:      cfg.Start + time.Duration(i)*cfg.Gap,
			App:     cfg.App,
			OS:      cfg.OS,
			Owner:   cfg.Owner,
			Nodes:   cfg.Nodes,
			PPN:     cfg.PPN,
			Runtime: cfg.Runtime,
		})
	}
	return trace
}

// MatlabGACase reproduces the §IV-B case study: a background stream of
// Linux molecular-dynamics work plus a burst of Windows MATLAB-MDCS
// genetic-algorithm jobs ("optimisation of Genetic Algorithms using
// the Distributed and Parallel MATLAB"). As the GA burst arrives the
// hybrid must shift nodes to Windows, then give them back.
func MatlabGACase(seed int64) Trace {
	background := Poisson(PoissonConfig{
		Seed:        seed,
		Duration:    12 * time.Hour,
		JobsPerHour: 3,
		WindowsFrac: 0, // pure Linux background
		MaxNodes:    4,
	})
	ga := Burst(BurstConfig{
		Start:   3 * time.Hour,
		Jobs:    10,
		Gap:     2 * time.Minute,
		App:     "MATLAB",
		OS:      osid.Windows,
		Nodes:   2,
		PPN:     4,
		Runtime: 40 * time.Minute,
		Owner:   "dhaupt",
	})
	trace := append(background, ga...)
	trace.Sort()
	return trace
}

// PhasedConfig parameterises PhasedWideMix.
type PhasedConfig struct {
	Seed        int64
	Phases      int           // total demand phases (default 8)
	WindowsFrac float64       // fraction of phases that are Windows-heavy
	PhaseGap    time.Duration // spacing between phase starts (default 3h)
	// WideNodes is the width of the big MPI-style job in each phase
	// (default 10 — wider than one half of a 16-node split).
	WideNodes int
	PPN       int // default 4
}

// PhasedWideMix generates the demand pattern the hybrid exists for:
// alternating OS-heavy phases, each mixing narrow jobs with one wide
// job that exceeds a static half-cluster. On a fixed split the wide
// jobs strand (head-of-line blocking forever); the hybrid's stuck
// detector fires and borrows the other side's nodes. The Windows
// fraction steers how many phases land on each OS.
func PhasedWideMix(cfg PhasedConfig) Trace {
	if cfg.Phases <= 0 {
		cfg.Phases = 8
	}
	if cfg.PhaseGap <= 0 {
		cfg.PhaseGap = 3 * time.Hour
	}
	if cfg.WideNodes <= 0 {
		cfg.WideNodes = 10
	}
	if cfg.PPN <= 0 {
		cfg.PPN = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	winPhases := int(math.Round(cfg.WindowsFrac * float64(cfg.Phases)))
	var trace Trace
	for p := 0; p < cfg.Phases; p++ {
		os := osid.Linux
		app := "LAMMPS"
		narrowApp := "GULP"
		if p < winPhases {
			os = osid.Windows
			app = "ANSYS FLUENT"
			narrowApp = "Backburner"
		}
		start := time.Duration(p) * cfg.PhaseGap
		// One wide job leading the phase...
		trace = append(trace, Job{
			At: start, App: app, OS: os, Owner: fmt.Sprintf("phase%02d", p),
			Nodes: cfg.WideNodes, PPN: cfg.PPN,
			Runtime: time.Hour + time.Duration(rng.Intn(30))*time.Minute,
		})
		// ...plus narrow fill behind it.
		for j := 0; j < 3; j++ {
			trace = append(trace, Job{
				At: start + time.Duration(j+1)*2*time.Minute, App: narrowApp, OS: os,
				Owner: fmt.Sprintf("phase%02d", p), Nodes: 2, PPN: cfg.PPN,
				Runtime: 30*time.Minute + time.Duration(rng.Intn(20))*time.Minute,
			})
		}
	}
	trace.Sort()
	return trace
}

// Merge combines traces into one ordered stream.
func Merge(traces ...Trace) Trace {
	var out Trace
	for _, t := range traces {
		out = append(out, t...)
	}
	out.Sort()
	return out
}
