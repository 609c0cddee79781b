// Package sweep runs whole parameter grids of hybrid-cluster
// scenarios instead of one hand-picked run at a time. A Grid spans
// nine axes — cluster modes × controller policies × scheduler
// policies × node counts × trace shapes × boot-failure rates ×
// topologies × routing policies × switch latencies —
// and expands into concrete cells, each a self-contained
// core.Scenario: a single cluster, or a whole campus fabric of
// members behind a job router. Run executes the cells on a bounded
// worker pool and aggregates their metrics summaries into ranked
// comparison tables and flat export rows. Long-running callers (the
// internal/service daemon) observe and steer an execution through the
// Config hooks: Progress fires once per finished cell, Cached lets a
// resume supply checkpointed results without re-running their cells,
// and closing Cancel stops the sweep between cells.
//
// Every axis is one registration in the self-describing axis registry
// (registry.go): grid-spec parsing, the qsim sweep flag set, CSV/JSON
// columns and deterministic cell naming all derive from it, so adding
// an axis is one Grid field plus one registration. Experiments also
// travel as versioned, replayable JSON documents (Spec, specdoc.go)
// with LoadSpec/SaveSpec and a byte-stable canonical form.
//
// Determinism contract: every cell derives its random seeds from the
// grid coordinates alone (FNV-1a over BaseSeed plus the cell's axis
// values), never from execution order, wall clock, or worker identity.
// Seeds pair comparisons: the trace seed depends only on the trace
// axis and the cluster seed only on the environment axes (node count,
// trace, failure rate), so cells compared across the mode and policy
// treatment axes face identical job streams and RNG draws.
// Each cell builds its own cluster and a fresh controller policy
// instance, and runs on an engine no other worker touches until the
// cell is done and the engine reset, so no simulation state is shared
// across workers. Results land at the cell's expansion index. The
// aggregate output of a sweep is therefore bit-identical regardless of
// worker count or completion order.
package sweep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TraceKind selects a workload generator family for one trace axis
// entry.
type TraceKind uint8

const (
	// TracePoisson draws the mixed campus workload (the default).
	TracePoisson TraceKind = iota
	// TracePhased generates the alternating wide-job demand phases.
	TracePhased
	// TraceMatlabGA replays the §IV-B MATLAB-MDCS case study.
	TraceMatlabGA
	// TraceDiurnal draws the day/night campus pattern: submission
	// rates peak in working hours and fall overnight.
	TraceDiurnal
	// TraceBurst lays recurring Windows render-farm bursts over a
	// steady Linux background — the sharpest demand oscillation in the
	// suite, the shape the anti-thrash policies are judged on.
	TraceBurst
	// TraceMMPP draws a two-state Markov-modulated Poisson process:
	// the arrival rate flips between the axis rate and a burst
	// multiple of it, with exponential dwell times.
	TraceMMPP
	// TraceUsers draws the closed interactive user-population model: N
	// simulated users submitting with think times, the offered load
	// self-limiting the way real user populations do.
	TraceUsers
	// TraceSWF replays a Standard Workload Format log (the Parallel
	// Workloads Archive format). The axis value carries the file:
	// "swf:<path>".
	TraceSWF
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TracePhased:
		return "phased"
	case TraceMatlabGA:
		return "matlabga"
	case TraceDiurnal:
		return "diurnal"
	case TraceBurst:
		return "burst"
	case TraceMMPP:
		return "mmpp"
	case TraceUsers:
		return "users"
	case TraceSWF:
		return "swf"
	default:
		return "poisson"
	}
}

// TraceSpec is one point on the trace-shape axis. The zero value is a
// 24-hour Poisson trace at 4 jobs/hour with a 30% Windows share.
type TraceSpec struct {
	// Name labels the shape in cell names and tables; when empty a
	// name is derived from the parameters.
	Name string
	Kind TraceKind
	// Poisson / phased shape parameters.
	JobsPerHour float64       // default 4 (poisson)
	WindowsFrac float64       // Windows share of jobs (poisson) or phases (phased)
	Duration    time.Duration // submission window, default 24h (poisson)
	MaxNodes    int           // job width cap, default 4 (poisson)
	Phases      int           // default 8 (phased)

	// SWF replay parameters (kind swf). SWFFile is the log path —
	// relative paths in committed spec documents are repo-root
	// relative and resolved against the working directory and then its
	// ancestors. The remaining fields mirror workload.SWFConfig:
	// MaxJobs/Window truncation, node-count rescale, and the
	// requested-vs-used runtime choice.
	SWFFile         string
	SWFMaxJobs      int           // keep only the first N records (0 = all)
	SWFWindow       time.Duration // keep only the first window of submissions (0 = all)
	SWFTargetNodes  int           // rescale the widest job to this many nodes (0 = keep)
	SWFUseRequested bool          // prefer requested over used runtimes

	// MMPP parameters (kind mmpp): the burst-state rate is
	// JobsPerHour × MMPPBurst (default 10), with mean state dwell
	// MMPPDwell (default 1h).
	MMPPBurst float64
	MMPPDwell time.Duration

	// User-population parameters (kind users): Users simulated users
	// (default 500) with mean think time Think (default 2h).
	// JobsPerHour does not apply — the population size sets the load.
	Users int
	Think time.Duration

	// Custom, when non-nil, overrides Kind entirely: the sweep calls
	// it with the cell's trace seed. Experiments use this to fan
	// bespoke traces through the grid machinery.
	Custom func(seed int64) workload.Trace
}

// Defaults for the heavy-traffic trace parameters; values the derived
// names omit, so explicitly setting a default is behaviour- and
// name-identical to leaving the field zero.
const (
	defaultMMPPBurst = 10.0
	defaultMMPPDwell = time.Hour
	defaultUsers     = 500
	defaultThink     = 2 * time.Hour
)

func (t TraceSpec) withDefaults() TraceSpec {
	if t.JobsPerHour <= 0 {
		t.JobsPerHour = 4
	}
	if t.Duration <= 0 {
		t.Duration = 24 * time.Hour
	}
	if t.MaxNodes <= 0 {
		t.MaxNodes = 4
	}
	if t.Phases <= 0 {
		t.Phases = 8
	}
	if t.MMPPBurst <= 0 {
		t.MMPPBurst = defaultMMPPBurst
	}
	if t.MMPPDwell <= 0 {
		t.MMPPDwell = defaultMMPPDwell
	}
	if t.Users <= 0 {
		t.Users = defaultUsers
	}
	if t.Think <= 0 {
		t.Think = defaultThink
	}
	if t.Name == "" {
		// %g keeps derived names lossless: distinct parameters must
		// never collide, because the name keys both the trace seed and
		// the spec parser's dedup.
		switch {
		case t.Custom != nil:
			t.Name = "custom"
		case t.Kind == TracePhased:
			t.Name = fmt.Sprintf("phased-w%g", t.WindowsFrac)
		case t.Kind == TraceMatlabGA:
			t.Name = "matlabga"
		case t.Kind == TraceDiurnal:
			t.Name = fmt.Sprintf("diurnal-%gjph-w%g", t.JobsPerHour, t.WindowsFrac)
		case t.Kind == TraceBurst:
			// The burst shape fixes its Windows share by construction,
			// so the name ignores WindowsFrac — crossing it with the
			// winfracs axis dedups instead of duplicating cells.
			t.Name = fmt.Sprintf("burst-%gjph", t.JobsPerHour)
		case t.Kind == TraceMMPP:
			t.Name = fmt.Sprintf("mmpp-%gjph-w%g", t.JobsPerHour, t.WindowsFrac)
			if t.MMPPBurst != defaultMMPPBurst {
				t.Name += fmt.Sprintf("-b%g", t.MMPPBurst)
			}
			if t.MMPPDwell != defaultMMPPDwell {
				t.Name += "-d" + t.MMPPDwell.String()
			}
		case t.Kind == TraceUsers:
			// The population size, not the rate axis, sets the load, so
			// the name ignores JobsPerHour — crossing with the rates
			// axis dedups instead of duplicating cells.
			t.Name = fmt.Sprintf("users%d-w%g", t.Users, t.WindowsFrac)
			if t.Think != defaultThink {
				t.Name += "-t" + t.Think.String()
			}
		case t.Kind == TraceSWF:
			// Like every derived name this one is lossless over the
			// parameters that shape the trace: distinct truncation,
			// rescale or runtime choices must never collide, because
			// the name keys the trace seed and the parser's dedup.
			// (Rate and submission window do not apply to a replay.)
			t.Name = "swf-" + swfNameBase(t.SWFFile) + fmt.Sprintf("-w%g", t.WindowsFrac)
			if t.SWFMaxJobs > 0 {
				t.Name += fmt.Sprintf("-j%d", t.SWFMaxJobs)
			}
			if t.SWFWindow > 0 {
				t.Name += fmt.Sprintf("-h%g", t.SWFWindow.Hours())
			}
			if t.SWFTargetNodes > 0 {
				t.Name += fmt.Sprintf("-n%d", t.SWFTargetNodes)
			}
			if t.SWFUseRequested {
				t.Name += "-req"
			}
		default:
			t.Name = fmt.Sprintf("poisson-%gjph-w%g", t.JobsPerHour, t.WindowsFrac)
		}
	}
	return t
}

// swfNameBase derives the trace-name stem from an SWF path: the
// basename without its extension, any character outside [a-zA-Z0-9._-]
// replaced so the name stays safe in cell names and CSV.
func swfNameBase(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	if base == "" || base == "." || base == string(filepath.Separator) {
		return "log"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, base)
}

// resolveTracePath finds a trace file: the path as given, or — when it
// is relative and missing — the same path against each ancestor
// directory. Committed spec documents carry repo-root-relative paths
// ("specs/sample.swf"), so replays keep working from package test
// directories and nested working directories alike. When nothing
// matches, the original path is returned so the open error names it.
func resolveTracePath(path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	if _, err := os.Stat(path); err == nil {
		return path
	}
	dir, err := os.Getwd()
	if err != nil {
		return path
	}
	for {
		parent := filepath.Dir(dir)
		if parent == dir {
			return path
		}
		dir = parent
		if cand := filepath.Join(dir, path); fileExists(cand) {
			return cand
		}
	}
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// Build materialises the trace with the given seed. Cells sharing a
// TraceSpec receive the same seed, so every mode/policy/failure-rate
// variant replays the identical job stream — comparisons are paired.
// The error path exists for the file-backed kinds (swf): the synthetic
// generators cannot fail.
func (t TraceSpec) Build(seed int64) (workload.Trace, error) {
	t = t.withDefaults()
	if t.Custom != nil {
		return t.Custom(seed), nil
	}
	switch t.Kind {
	case TracePhased:
		return workload.PhasedWideMix(workload.PhasedConfig{
			Seed: seed, Phases: t.Phases, WindowsFrac: t.WindowsFrac,
		}), nil
	case TraceMatlabGA:
		return workload.MatlabGACase(seed), nil
	case TraceDiurnal:
		days := int(t.Duration / (24 * time.Hour))
		if days < 1 {
			days = 1
		}
		return workload.Diurnal(workload.DiurnalConfig{
			Seed: seed, Days: days, PeakPerHour: t.JobsPerHour,
			WindowsFrac: t.WindowsFrac, MaxNodes: t.MaxNodes,
		}), nil
	case TraceBurst:
		// Render-farm bursts every six hours over a Linux-only Poisson
		// background at half the axis rate: demand that swings hard to
		// Windows and back, four times a day.
		lin := workload.Poisson(workload.PoissonConfig{
			Seed: seed, Duration: t.Duration, JobsPerHour: t.JobsPerHour / 2,
			WindowsFrac: 0, MaxNodes: t.MaxNodes,
		})
		var bursts workload.Trace
		for start := time.Duration(0); start < t.Duration; start += 6 * time.Hour {
			bursts = append(bursts, workload.Burst(workload.BurstConfig{
				Start: start, Jobs: 4, Gap: 2 * time.Minute, App: "Backburner",
				OS: osid.Windows, Nodes: 2, PPN: 4,
				Runtime: 45 * time.Minute, Owner: "render",
			})...)
		}
		return workload.Merge(lin, bursts), nil
	case TraceMMPP:
		return workload.MMPP(workload.MMPPConfig{
			Seed: seed, Duration: t.Duration, BaseRate: t.JobsPerHour,
			BurstFactor: t.MMPPBurst, MeanDwell: t.MMPPDwell,
			WindowsFrac: t.WindowsFrac, MaxNodes: t.MaxNodes,
		}), nil
	case TraceUsers:
		return workload.UserPopulation(workload.UserPopulationConfig{
			Seed: seed, Users: t.Users, Duration: t.Duration,
			MeanThink: t.Think, WindowsFrac: t.WindowsFrac, MaxNodes: t.MaxNodes,
		}), nil
	case TraceSWF:
		if t.SWFFile == "" {
			return nil, fmt.Errorf("sweep: trace %q: swf kind needs a file", t.Name)
		}
		tr, _, err := workload.ReadSWFFile(resolveTracePath(t.SWFFile), workload.SWFConfig{
			Seed: seed, WindowsFrac: t.WindowsFrac,
			MaxJobs: t.SWFMaxJobs, Window: t.SWFWindow,
			TargetNodes: t.SWFTargetNodes, UseRequested: t.SWFUseRequested,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: trace %q: %w", t.Name, err)
		}
		return tr, nil
	default:
		return workload.Poisson(workload.PoissonConfig{
			Seed: seed, Duration: t.Duration, JobsPerHour: t.JobsPerHour,
			WindowsFrac: t.WindowsFrac, MaxNodes: t.MaxNodes,
		}), nil
	}
}

// PolicySpec is one point on the controller-policy axis. New must
// return a fresh instance on every call: policies such as Hysteresis
// and Predictive carry mutable state, and sharing one instance across
// concurrently running cells would be both a data race and a
// determinism leak.
type PolicySpec struct {
	Name string
	New  func() controller.Policy
}

// DefaultPolicies returns the controller registry's policy
// constructors as sweep axis points — the vocabulary the CLI and
// grid-spec parser understand.
func DefaultPolicies() []PolicySpec {
	fs := controller.Factories()
	out := make([]PolicySpec, len(fs))
	for i, f := range fs {
		out[i] = PolicySpec{Name: f.Name, New: f.New}
	}
	return out
}

// PolicyByName resolves a policy constructor through the controller
// registry. Unknown names error with the full valid set — no parse
// boundary accepts a misspelled policy silently.
func PolicyByName(name string) (PolicySpec, error) {
	for _, f := range controller.Factories() {
		if f.Name == name {
			return PolicySpec{Name: f.Name, New: f.New}, nil
		}
	}
	return PolicySpec{}, fmt.Errorf("sweep: unknown controller policy %q (valid: %s)",
		name, strings.Join(controller.PolicyNames(), " | "))
}

// Split selects a topology member's initial OS split.
type Split uint8

const (
	// SplitHalf boots half the nodes into Linux (the cluster default).
	SplitHalf Split = iota
	// SplitAllLinux boots every node into Linux (a Linux-only static).
	SplitAllLinux
	// SplitAllWindows boots every node into Windows.
	SplitAllWindows
)

// TopologyMember describes one member cluster of a topology axis
// point, relative to the cell it lands in: zero Nodes inherits the
// cell's node count, and Inherit follows the cell's mode axis — so
// crossing a campus topology with the mode axis flips its flexible
// members between organisations while the pinned statics stand still.
type TopologyMember struct {
	Name string
	// Mode pins the member's organisation; ignored when Inherit is
	// set, in which case the member takes the cell's mode.
	Mode    cluster.Mode
	Inherit bool
	// Nodes overrides the cell's node count (0 = inherit).
	Nodes int
	// Split selects the member's initial OS split.
	Split Split
}

// TopologySpec is one point on the topology axis. No members means a
// single cluster — the classic sweep path.
type TopologySpec struct {
	// Name keys the cell's derived seeds and its display name.
	Name    string
	Members []TopologyMember
}

// IsGrid reports whether the topology expands into a campus fabric.
func (t TopologySpec) IsGrid() bool { return len(t.Members) > 0 }

func (t TopologySpec) withDefaults() TopologySpec {
	if t.Name == "" {
		if len(t.Members) == 0 {
			t.Name = "single"
		} else {
			t.Name = fmt.Sprintf("grid%d", len(t.Members))
		}
	}
	return t
}

// DefaultTopologies returns the named topology presets the CLI and
// grid-spec parser understand: the single cluster, the Queensgate-like
// campus (a flexible member between a Linux-only and a Windows-only
// static), and a twin-hybrid pair.
func DefaultTopologies() []TopologySpec {
	return []TopologySpec{
		{Name: "single"},
		{Name: "campus", Members: []TopologyMember{
			{Name: "eridani", Inherit: true},
			{Name: "tauceti", Mode: cluster.Static, Split: SplitAllLinux},
			{Name: "vega", Mode: cluster.Static, Split: SplitAllWindows},
		}},
		{Name: "twin-hybrid", Members: []TopologyMember{
			{Name: "eridani", Inherit: true},
			{Name: "altair", Inherit: true},
		}},
	}
}

// TopologyByName finds a default topology preset; unknown names error
// with the valid set.
func TopologyByName(name string) (TopologySpec, error) {
	presets := DefaultTopologies()
	valid := make([]string, len(presets))
	for i, t := range presets {
		if t.Name == name {
			return t, nil
		}
		valid[i] = t.Name
	}
	return TopologySpec{}, fmt.Errorf("sweep: unknown topology %q (valid: %s)",
		name, strings.Join(valid, " | "))
}

// Grid spans the scenario space to sweep. Empty axes collapse to a
// single default point, so the zero Grid is one hybrid-v2 FCFS cell.
type Grid struct {
	Modes    []cluster.Mode
	Policies []PolicySpec
	// SchedPolicies is the head-scheduler discipline axis (fcfs |
	// backfill). Like the controller policy it is a treatment axis:
	// every variant of a cell faces identical seeds and job streams.
	SchedPolicies []cluster.SchedPolicy
	NodeCounts    []int
	Traces        []TraceSpec
	FailureRates  []float64 // per-boot probability of a node breaking
	// Topologies spans single clusters and campus fabrics; empty means
	// the single cluster only.
	Topologies []TopologySpec
	// Routings is the campus router's policy axis. It only multiplies
	// grid topologies: single-cluster cells have no router, so they
	// expand against the first routing alone instead of duplicating.
	Routings []grid.RoutingPolicy
	// SwitchLatencies is the per-cell OS switch-latency axis: each
	// value scales the boot-latency model so the planning estimate for
	// a switch to Windows hits the target (see SwitchLatencyModel).
	// Zero keeps the stock model. A treatment axis: every latency
	// variant of a cell replays identical seeds and job streams.
	SwitchLatencies []time.Duration

	// BaseSeed perturbs every derived seed; two sweeps with different
	// BaseSeeds are independent replications of the same grid.
	BaseSeed int64
	// Cycle is the controller reporting interval for every cell
	// (default 5m).
	Cycle time.Duration
	// InitialLinux is the number of nodes booted into Linux at time
	// zero in every cell (0 = half; clamped to the cell's node count
	// by the cluster defaults).
	InitialLinux int
	// Horizon bounds each cell's virtual time (default: trace span +
	// 48h, as core.Run).
	Horizon time.Duration
}

func (g Grid) withDefaults() Grid {
	if len(g.Modes) == 0 {
		g.Modes = []cluster.Mode{cluster.HybridV2}
	}
	if len(g.Policies) == 0 {
		g.Policies = []PolicySpec{{"fcfs", nil}} // nil: manager default (FCFS)
	}
	if len(g.SchedPolicies) == 0 {
		g.SchedPolicies = []cluster.SchedPolicy{cluster.SchedFCFS}
	}
	if len(g.NodeCounts) == 0 {
		g.NodeCounts = []int{16}
	}
	// Normalise into a fresh slice: withDefaults has value-receiver
	// semantics, so the caller's Grid must not be written through.
	src := g.Traces
	if len(src) == 0 {
		src = []TraceSpec{{}}
	}
	traces := make([]TraceSpec, len(src))
	counts := map[string]int{}
	for i, t := range src {
		traces[i] = t.withDefaults()
		// Names key both the trace seed and result lookups, so they
		// must be unique; duplicates (e.g. several unnamed Custom
		// traces) get a deterministic position suffix.
		counts[traces[i].Name]++
		if n := counts[traces[i].Name]; n > 1 {
			traces[i].Name = fmt.Sprintf("%s#%d", traces[i].Name, n)
		}
	}
	g.Traces = traces
	if len(g.FailureRates) == 0 {
		g.FailureRates = []float64{0}
	}
	topos := g.Topologies
	if len(topos) == 0 {
		topos = []TopologySpec{{}}
	}
	g.Topologies = make([]TopologySpec, len(topos))
	for i, t := range topos {
		g.Topologies[i] = t.withDefaults()
	}
	if len(g.Routings) == 0 {
		g.Routings = []grid.RoutingPolicy{grid.RouteLeastLoaded}
	}
	if g.Cycle <= 0 {
		g.Cycle = 5 * time.Minute
	}
	// Axes registered with their own default hook (the registry-era
	// axes) fill themselves in; the hook must not write through to the
	// caller's slices, which the nil-check-then-assign pattern honours.
	for _, ax := range registry {
		if ax.Defaults != nil {
			ax.Defaults(&g)
		}
	}
	return g
}

// Cell is one concrete point of the grid: a scenario plus the seeds
// derived from its coordinates.
type Cell struct {
	Index  int // position in expansion order
	Mode   cluster.Mode
	Policy PolicySpec
	// Sched is the head schedulers' queue discipline (fcfs|backfill).
	Sched       cluster.SchedPolicy
	Nodes       int
	Trace       TraceSpec
	FailureRate float64
	// Topology and Routing place the cell on the fabric axes; a
	// single-cluster cell carries the "single" topology and the grid's
	// first routing (which it never uses).
	Topology TopologySpec
	Routing  grid.RoutingPolicy
	// SwitchLat is the cell's OS switch-latency target (0 = stock
	// boot-latency model).
	SwitchLat time.Duration

	// Seed drives the cell's cluster (boot jitter, failure draws). It
	// is derived from the environment axes only — node count, trace
	// shape, failure rate — never from mode or policy, so cells
	// compared across those treatment axes share their RNG stream
	// exactly as core.CompareModes runs every mode on one seed.
	Seed int64
	// TraceSeed drives the workload generator. It depends only on the
	// trace axis, so cells differing in mode, policy, node count or
	// failure rate replay the identical trace.
	TraceSeed int64

	cycle        time.Duration
	horizon      time.Duration
	initialLinux int
}

// Name renders the cell's coordinates as a stable slash-joined label,
// derived from the axis registry: every axis contributes its segment
// (or withholds it at its default), ordered by the registrations'
// NameOrder. Single-cluster FCFS cells keep the classic five-segment
// form; backfill cells append the scheduler-policy segment, grid cells
// their topology and routing coordinates, and scaled-latency cells an
// "sl<duration>" segment.
func (c Cell) Name() string {
	type seg struct {
		order, reg int
		text       string
	}
	var segs []seg
	for i, ax := range registry {
		if ax.Segment == nil {
			continue
		}
		if s := ax.Segment(c); s != "" {
			segs = append(segs, seg{ax.NameOrder, i, s})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].order != segs[j].order {
			return segs[i].order < segs[j].order
		}
		return segs[i].reg < segs[j].reg
	})
	parts := make([]string, len(segs))
	for i, s := range segs {
		parts[i] = s.text
	}
	return strings.Join(parts, "/")
}

// Scenario materialises the cell into a runnable core.Scenario. Grid
// cells expand their topology into concrete member configs: each
// member derives its seed from the cell seed and its own name (so
// members draw independent RNG streams that are still pure functions
// of the grid coordinates) and gets a fresh policy instance. The error
// comes from trace materialisation (file-backed kinds).
func (c Cell) Scenario() (core.Scenario, error) {
	trace, err := c.Trace.Build(c.TraceSeed)
	if err != nil {
		return core.Scenario{}, err
	}
	sc := core.Scenario{
		Name:        c.Name(),
		Trace:       trace,
		Horizon:     c.horizon,
		SchedPolicy: c.Sched,
	}
	if !c.Topology.IsGrid() {
		sc.Cluster = cluster.Config{
			Mode:            c.Mode,
			Nodes:           c.Nodes,
			InitialLinux:    c.initialLinux,
			Cycle:           c.cycle,
			Policy:          c.newPolicy(),
			SchedPolicy:     c.Sched,
			Seed:            c.Seed,
			BootFailureProb: c.FailureRate,
		}
		return c.configure(sc), nil
	}
	// Grid runs read only the mode from the root config (for
	// Result.Mode); the members below carry the real configurations.
	sc.Cluster.Mode = c.Mode
	members := make([]grid.MemberSpec, 0, len(c.Topology.Members))
	for _, m := range c.Topology.Members {
		mode := m.Mode
		if m.Inherit {
			mode = c.Mode
		}
		nodes := m.Nodes
		if nodes <= 0 {
			nodes = c.Nodes
		}
		initialLinux := 0 // half
		switch m.Split {
		case SplitAllLinux:
			initialLinux = nodes
		case SplitAllWindows:
			initialLinux = -1
		}
		members = append(members, grid.MemberSpec{
			Name: m.Name,
			Config: cluster.Config{
				Mode:            mode,
				Nodes:           nodes,
				InitialLinux:    initialLinux,
				Cycle:           c.cycle,
				Policy:          c.newPolicy(),
				SchedPolicy:     c.Sched,
				Seed:            deriveSeed(c.Seed, "member", m.Name),
				BootFailureProb: c.FailureRate,
			},
		})
	}
	sc.Topology = core.Topology{Routing: c.Routing, Members: members}
	return c.configure(sc), nil
}

// configure lets registry axes that act through core.Scenario fields
// (switchlat sets Scenario.Latency) apply themselves — the cell
// materialiser stays axis-agnostic.
func (c Cell) configure(sc core.Scenario) core.Scenario {
	for _, ax := range registry {
		if ax.Configure != nil {
			ax.Configure(c, &sc)
		}
	}
	return sc
}

// newPolicy builds a fresh controller policy instance — one per
// cluster, never shared (policies carry mutable state).
func (c Cell) newPolicy() controller.Policy {
	if c.Policy.New != nil {
		return c.Policy.New()
	}
	return nil
}

// deriveSeed hashes coordinate strings into a seed with FNV-1a.
// Deterministic across runs, platforms and Go versions.
func deriveSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", base)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64() &^ (1 << 63)) // keep it non-negative
}

// Expand enumerates every cell by nesting the registry's expandable
// axes in registration order: mode (outermost), controller policy,
// scheduler policy, node count, trace shape, failure rate, topology,
// routing, switch latency (innermost). Single-cluster topologies have
// no router, so they expand against the first routing only instead of
// duplicating cells.
//
// Seed pairing is a registry property: axes registered with an Env
// contribution (node count, trace, failure rate, topology — a campus
// fabric is a different machine, so it draws its own cluster seed,
// while single-cluster cells keep their historical seeds) key the
// cluster seed; every other axis is a treatment axis whose variants
// face identical RNG draws and replay the identical trace.
func (g Grid) Expand() []Cell {
	g = g.withDefaults()
	var axes []*Axis
	for _, ax := range registry {
		if ax.Points != nil {
			axes = append(axes, ax)
		}
	}
	var cells []Cell
	var rec func(depth int, c Cell)
	rec = func(depth int, c Cell) {
		if depth == len(axes) {
			c.Index = len(cells)
			envParts := []string{"cluster"}
			for _, ax := range axes {
				if ax.Env == nil {
					continue
				}
				if part := ax.Env(c); part != "" {
					envParts = append(envParts, part)
				}
			}
			c.Seed = deriveSeed(g.BaseSeed, envParts...)
			c.TraceSeed = deriveSeed(g.BaseSeed, "trace", c.Trace.Name)
			c.cycle = g.Cycle
			c.horizon = g.Horizon
			c.initialLinux = g.InitialLinux
			cells = append(cells, c)
			return
		}
		ax := axes[depth]
		for i := 0; i < ax.Points(g, c); i++ {
			next := c
			ax.Apply(g, &next, i)
			rec(depth+1, next)
		}
	}
	rec(0, Cell{})
	return cells
}

// ErrCanceled marks the cells a canceled sweep never ran: when
// Config.Cancel is closed mid-sweep, every cell not yet started lands
// in the outcome with this error instead of a result.
var ErrCanceled = errors.New("sweep: canceled")

// Config configures one sweep execution.
type Config struct {
	Grid Grid
	// Workers bounds concurrent cell runs (default 4). A sweep that
	// runs any cell builds one engine per worker and resets it between
	// cells; a worker owns the engine of whichever cell it is running,
	// and workers share nothing but the work queue, the engine pool
	// and the result slots.
	Workers int

	// Progress, when non-nil, is called once per finished cell — run
	// or supplied by Cached, never canceled — as results land. Calls
	// are serialised (never concurrent) but arrive in completion
	// order, which depends on worker scheduling; the determinism
	// contract covers the returned Outcome, not the progress stream.
	// The service layer hangs its per-cell checkpoints and live event
	// stream off this hook.
	Progress func(CellResult)
	// Cached, when non-nil, is consulted before running each cell: a
	// true return supplies the cell's result without running it (the
	// service's crash-recovery resume replays checkpointed cells this
	// way). Run overwrites the supplied result's Cell field with the
	// expanded cell, and reports it through Progress like any other
	// completion. Unlike Progress, calls may be concurrent — each
	// worker consults the hook itself — so implementations must be
	// safe for concurrent use.
	Cached func(Cell) (CellResult, bool)
	// Cancel, when non-nil, stops the sweep between cells once
	// closed: cells not yet started finish as Err == ErrCanceled,
	// while cells already running complete normally (and still reach
	// Progress, so their checkpoints land before the caller shuts
	// down).
	Cancel <-chan struct{}
}

// CellResult pairs a cell with its outcome. Err is non-nil when the
// scenario failed to run; the sweep continues past failed cells.
type CellResult struct {
	Cell Cell
	Res  core.Result
	Err  error
}

// Outcome aggregates a completed sweep. Results is in expansion order.
type Outcome struct {
	Results []CellResult
}

// Run expands the grid and executes every cell on a bounded worker
// pool. The outcome is deterministic in the sense documented on the
// package: identical for any Workers value.
func Run(cfg Config) (*Outcome, error) {
	cells := cfg.Grid.Expand()
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]CellResult, len(cells))
	// Progress calls are serialised under one mutex so the hook never
	// races with itself — completion order still depends on worker
	// scheduling.
	var progressMu sync.Mutex
	report := func(r CellResult) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		cfg.Progress(r)
		progressMu.Unlock()
	}
	engines := &enginePool{workers: workers}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cfg.Cancel != nil {
					select {
					case <-cfg.Cancel:
						results[i] = CellResult{Cell: cells[i], Err: ErrCanceled}
						continue
					default:
					}
				}
				if cfg.Cached != nil {
					if r, ok := cfg.Cached(cells[i]); ok {
						r.Cell = cells[i]
						results[i] = r
						report(results[i])
						continue
					}
				}
				// Scenario() builds a private cluster and policy
				// instance per cell, and the engine is this worker's
				// until it goes back reset; the only shared write is
				// this cell's own result slot.
				eng := engines.take()
				sc, err := cells[i].Scenario()
				var res core.Result
				if err == nil {
					res, err = core.RunOn(eng, sc)
				}
				engines.put(eng)
				results[i] = CellResult{Cell: cells[i], Res: res, Err: err}
				report(results[i])
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	return &Outcome{Results: results}, nil
}

// enginePool holds the engines of one sweep. Cells run on engines
// that outlive them: the first cell that has to run fills the pool
// with one engine per worker, and each cell takes one and resets it
// before putting it back. A sweep whose cells are all cached builds
// none, and the count never depends on worker scheduling, so
// allocation counts stay deterministic.
type enginePool struct {
	workers int
	fill    sync.Once
	free    chan *simtime.Engine
}

func (p *enginePool) take() *simtime.Engine {
	p.fill.Do(func() {
		p.free = make(chan *simtime.Engine, p.workers)
		for range p.workers {
			p.free <- simtime.NewEngine()
		}
	})
	return <-p.free
}

func (p *enginePool) put(eng *simtime.Engine) {
	eng.Reset()
	p.free <- eng
}

// Select returns the results whose cells satisfy pred, in expansion
// order.
func (o *Outcome) Select(pred func(Cell) bool) []CellResult {
	var out []CellResult
	for _, r := range o.Results {
		if pred(r.Cell) {
			out = append(out, r)
		}
	}
	return out
}

// Errs returns the failed cells.
func (o *Outcome) Errs() []CellResult {
	var out []CellResult
	for _, r := range o.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Ranked orders results best-first: by utilisation, then completed
// jobs, with the expansion index as the final tie-break so the order
// is total and reproducible. Failed cells sink to the bottom.
func (o *Outcome) Ranked() []CellResult {
	out := append([]CellResult(nil), o.Results...)
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		si, sj := out[i].Res.Summary, out[j].Res.Summary
		if si.Utilisation != sj.Utilisation {
			return si.Utilisation > sj.Utilisation
		}
		ci := si.JobsCompleted[osid.Linux] + si.JobsCompleted[osid.Windows]
		cj := sj.JobsCompleted[osid.Linux] + sj.JobsCompleted[osid.Windows]
		if ci != cj {
			return ci > cj
		}
		return out[i].Cell.Index < out[j].Cell.Index
	})
	return out
}

// Header matches the rows of Table.
func Header() []string {
	return []string{"rank", "cell", "util", "wait(L)", "wait(W)", "switches", "broken", "done/subm"}
}

// Row renders one ranked result.
func Row(rank int, r CellResult) []string {
	if r.Err != nil {
		return []string{fmt.Sprintf("%d", rank), r.Cell.Name(), "-", "-", "-", "-", "-", "error: " + r.Err.Error()}
	}
	s := r.Res.Summary
	done := s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
	subm := s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
	return []string{
		fmt.Sprintf("%d", rank),
		r.Cell.Name(),
		metrics.Pct(s.Utilisation),
		metrics.Dur(s.MeanWait[osid.Linux]),
		metrics.Dur(s.MeanWait[osid.Windows]),
		fmt.Sprintf("%d", s.Switches),
		fmt.Sprintf("%d", r.Res.BrokenNodes),
		fmt.Sprintf("%d/%d", done, subm),
	}
}

// Table renders the ranked comparison table.
func (o *Outcome) Table() string {
	ranked := o.Ranked()
	rows := make([][]string, len(ranked))
	for i, r := range ranked {
		rows[i] = Row(i+1, r)
	}
	return metrics.Table(Header(), rows)
}

// AxisFields renders a cell's axis coordinates as ordered export
// fields, derived from the registry: the cell name first, then one
// field per axis column. Optional columns (switchlat) appear only when
// active is true for them, so grids that never touch a new axis
// serialise exactly as they did before the axis existed.
func axisFields(c Cell, active map[string]bool) []export.Field {
	fields := []export.Field{{Key: "cell", Text: c.Name(), JSON: c.Name()}}
	for _, ax := range registry {
		if ax.Column == "" {
			continue
		}
		if ax.ColumnOptional && !active[ax.Column] {
			continue
		}
		text, js := ax.Col(c)
		fields = append(fields, export.Field{Key: ax.Column, Text: text, JSON: js, OmitEmptyJSON: ax.OmitEmptyJSON})
	}
	return fields
}

// activeColumns reports which optional axis columns any cell switches
// on.
func (o *Outcome) activeColumns() map[string]bool {
	active := map[string]bool{}
	for _, ax := range registry {
		if ax.Column == "" || !ax.ColumnOptional {
			continue
		}
		for _, r := range o.Results {
			if ax.ColumnActive(r.Cell) {
				active[ax.Column] = true
				break
			}
		}
	}
	return active
}

// Rows flattens the outcome (in expansion order) for CSV/JSON export.
// The axis columns — names, order and values — derive from the axis
// registry; export only supplies the metric columns.
func (o *Outcome) Rows() []export.SweepRow {
	active := o.activeColumns()
	rows := make([]export.SweepRow, len(o.Results))
	for i, r := range o.Results {
		row := export.SweepRow{Axes: axisFields(r.Cell, active)}
		if r.Err != nil {
			row.Err = r.Err.Error()
		} else {
			s := r.Res.Summary
			row.Utilisation = s.Utilisation
			row.MeanWaitLinuxSec = s.MeanWait[osid.Linux].Seconds()
			row.MeanWaitWindowsSec = s.MeanWait[osid.Windows].Seconds()
			row.Switches = s.Switches
			row.SwitchesOK = s.SwitchesOK
			row.Thrash = r.Res.Thrash
			row.MeanSwitchSec = s.MeanSwitch.Seconds()
			row.JobsSubmitted = s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows]
			row.JobsCompleted = s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
			row.SubmitFailures = s.SubmitFailures
			row.BrokenNodes = r.Res.BrokenNodes
			row.Dropped = r.Res.Dropped
			row.MakespanSec = s.Makespan.Seconds()
		}
		rows[i] = row
	}
	return rows
}

// Describe summarises the grid axes ("2 modes × ... = 24 cells"),
// with both the axis labels and the cell count derived from the
// registry. Quiet axes (switchlat) appear only when actually swept, so
// pre-registry grids keep their historical description.
func (g Grid) Describe() string {
	gd := g.withDefaults()
	var axes []*Axis
	var parts []string
	for _, ax := range registry {
		if ax.Points == nil {
			continue
		}
		axes = append(axes, ax)
		if ax.Plural == "" {
			continue
		}
		// The routing axis's per-cell collapse does not change how
		// many points the axis itself holds, so a grid-shaped probe
		// cell reads the full axis length.
		n := ax.Points(gd, Cell{Topology: TopologySpec{Members: []TopologyMember{{}}}})
		if ax.Quiet && n <= 1 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d %s", n, ax.Plural))
	}
	// Count by mirroring Expand's nesting without materialising cells
	// or deriving seeds — the collapse rules (single topologies take
	// one routing) come from the same Points functions.
	var count func(depth int, c Cell) int
	count = func(depth int, c Cell) int {
		if depth == len(axes) {
			return 1
		}
		ax := axes[depth]
		total := 0
		for i := 0; i < ax.Points(gd, c); i++ {
			next := c
			ax.Apply(gd, &next, i)
			total += count(depth+1, next)
		}
		return total
	}
	return fmt.Sprintf("%s = %d cells", strings.Join(parts, " × "), count(0, Cell{}))
}
