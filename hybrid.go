// Package hybridcluster is the public API of this reproduction of
// "Hybrid Computer Cluster with High Flexibility" (Liang, Holmes,
// Kureshi — IEEE Cluster 2012): the dualboot-oscar middleware that
// turns a legacy Beowulf cluster into a bi-stable Linux/Windows hybrid
// by rebooting idle nodes into whichever operating system has queued
// demand.
//
// The package re-exports the simulation façade. A minimal use:
//
//	trace := hybridcluster.PoissonTrace(hybridcluster.PoissonConfig{
//		Seed: 1, Duration: 24 * time.Hour, JobsPerHour: 6, WindowsFrac: 0.4,
//	})
//	result, err := hybridcluster.Run(hybridcluster.Scenario{
//		Name:    "campus-day",
//		Cluster: hybridcluster.ClusterConfig{Mode: hybridcluster.HybridV2},
//		Trace:   trace,
//	})
//
// Beyond single runs, Sweep executes whole parameter grids — cluster
// modes × controller policies × scheduler policies × node counts ×
// trace shapes × boot-failure rates × topologies × routing policies ×
// switch latencies — on a bounded worker pool. Every axis is one
// registration in the sweep package's self-describing axis registry,
// from which grid-spec parsing, CLI flags, export columns and cell
// names all derive. A topology cell runs a whole campus fabric
// (several clusters on one clock behind a job router) and its Result
// carries per-member summaries:
//
//	out, err := hybridcluster.Sweep(hybridcluster.SweepConfig{
//		Grid: hybridcluster.SweepGrid{
//			Modes:      []hybridcluster.ClusterMode{hybridcluster.HybridV2, hybridcluster.Static},
//			NodeCounts: []int{8, 16},
//		},
//		Workers: 8,
//	})
//
// Sweeps are deterministic by construction: every cell derives its
// seeds from its grid coordinates (never from execution order), owns a
// private simulation engine, and lands its result at its expansion
// index — so the aggregate output is bit-identical for any worker
// count. See the sweep package doc for the full contract.
//
// Lower-level building blocks (the PBS and Windows HPC simulators, the
// GRUB/PXE boot chain, the detector wire format, deployment tooling)
// live in the internal packages; see README.md for the map.
package hybridcluster

import (
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Cluster organisations under test.
const (
	// HybridV1 is dualboot-oscar 1.0 (FAT control file, MBR GRUB).
	HybridV1 = cluster.HybridV1
	// HybridV2 is dualboot-oscar 2.0 (PXE flag boot control).
	HybridV2 = cluster.HybridV2
	// Static is the fixed Linux/Windows sub-cluster baseline.
	Static = cluster.Static
	// MonoStable is the one-scheduler, return-home baseline.
	MonoStable = cluster.MonoStable
)

// Operating-system identities.
const (
	Linux   = osid.Linux
	Windows = osid.Windows
)

// Re-exported types; see the internal packages for full documentation.
type (
	// Scenario configures one run (cluster + trace).
	Scenario = core.Scenario
	// Result is the digested outcome of a run.
	Result = core.Result
	// ClusterConfig parameterises the simulated cluster.
	ClusterConfig = cluster.Config
	// ClusterMode selects hybrid-v1/v2, static or mono-stable.
	ClusterMode = cluster.Mode
	// Snapshot is one point of a node-count time series.
	Snapshot = cluster.Snapshot
	// Summary is the metrics digest of a run.
	Summary = metrics.Summary
	// Trace is an ordered stream of jobs.
	Trace = workload.Trace
	// Job is one workload submission.
	Job = workload.Job
	// PoissonConfig parameterises the campus workload generator.
	PoissonConfig = workload.PoissonConfig
	// BurstConfig parameterises a demand burst.
	BurstConfig = workload.BurstConfig
	// Policy is a controller decision rule.
	Policy = controller.Policy
)

// Controller policies: FCFSPolicy is the paper's deployed rule; the
// others are the "adapt the rules" extensions from §V.
type (
	FCFSPolicy       = controller.FCFS
	ThresholdPolicy  = controller.Threshold
	HysteresisPolicy = controller.Hysteresis
	PredictivePolicy = controller.Predictive
	FairSharePolicy  = controller.FairShare
)

// ParsePolicy resolves a controller policy by registry name, returning
// a fresh instance; unknown names error with the valid set.
func ParsePolicy(name string) (Policy, error) { return controller.ParsePolicy(name) }

// PolicyNames lists the valid controller policy names in registry
// order.
func PolicyNames() []string { return controller.PolicyNames() }

// SchedPolicy selects the head schedulers' queue discipline: strict
// FCFS (the paper's deployment) or reservation-based EASY backfill,
// under which later jobs may jump a blocked queue head only when they
// cannot delay its earliest reservation.
type SchedPolicy = cluster.SchedPolicy

// Head-scheduler queue disciplines.
const (
	SchedFCFS     = cluster.SchedFCFS
	SchedBackfill = cluster.SchedBackfill
)

// ParseSchedPolicy resolves a scheduler policy by name ("fcfs" |
// "backfill"); unknown names error with the valid set.
func ParseSchedPolicy(name string) (SchedPolicy, error) { return cluster.ParseSchedPolicy(name) }

// SchedPolicyNames lists the valid scheduler policy names.
func SchedPolicyNames() []string { return cluster.SchedPolicyNames() }

// Run executes a scenario from time zero on a fresh cluster.
func Run(sc Scenario) (Result, error) { return core.Run(sc) }

// CompareModes runs one trace through several organisations.
func CompareModes(modes []ClusterMode, base ClusterConfig, trace Trace, horizon time.Duration) ([]Result, error) {
	return core.CompareModes(modes, base, trace, horizon)
}

// ComparisonTable renders results as an aligned text table.
func ComparisonTable(results []Result) string { return core.ComparisonTable(results) }

// PoissonTrace draws a mixed campus workload from the Table-I
// application catalog.
func PoissonTrace(cfg PoissonConfig) Trace { return workload.Poisson(cfg) }

// BurstTrace generates a rapid run of similar jobs.
func BurstTrace(cfg BurstConfig) Trace { return workload.Burst(cfg) }

// MatlabGATrace reproduces the §IV-B MATLAB-MDCS genetic-algorithm
// case study workload.
func MatlabGATrace(seed int64) Trace { return workload.MatlabGACase(seed) }

// MergeTraces combines traces into one ordered stream.
func MergeTraces(traces ...Trace) Trace { return workload.Merge(traces...) }

// DiurnalTrace draws the day/night campus submission pattern.
func DiurnalTrace(cfg DiurnalConfig) Trace { return workload.Diurnal(cfg) }

// DiurnalConfig parameterises DiurnalTrace.
type DiurnalConfig = workload.DiurnalConfig

// Campus-grid layer: several clusters (hybrid and single-OS) sharing
// one clock behind a capability- and load-aware job router — the
// Queensgate Grid context the paper deploys into.
type (
	// Grid is the multi-cluster fabric.
	Grid = grid.Grid
	// GridMemberSpec configures one member cluster.
	GridMemberSpec = grid.MemberSpec
	// GridRouting selects the routing policy.
	GridRouting = grid.RoutingPolicy
)

// Grid routing policies.
const (
	RouteLeastLoaded = grid.RouteLeastLoaded
	RouteRoundRobin  = grid.RouteRoundRobin
	RouteHybridLast  = grid.RouteHybridLast
)

// NewGrid assembles a campus grid from member cluster specs.
func NewGrid(policy GridRouting, members []GridMemberSpec) (*Grid, error) {
	return grid.New(policy, members)
}

// ParseGridRouting resolves a routing policy by name
// ("least-loaded" | "round-robin" | "hybrid-last").
func ParseGridRouting(name string) (GridRouting, error) { return grid.ParsePolicy(name) }

// Topology-aware runs: a Scenario whose Topology has members executes
// across a whole campus fabric on one clock, and the Result carries
// per-member summaries plus the fabric aggregate.
type (
	// Topology selects single-cluster or campus-grid execution.
	Topology = core.Topology
	// MemberResult is one grid member's share of a topology run.
	MemberResult = core.MemberResult
)

// Scenario-sweep layer: expand a parameter grid into scenarios, run
// them concurrently with deterministic per-cell seeding, and rank the
// outcomes.
type (
	// SweepConfig is a grid plus the worker-pool bound.
	SweepConfig = sweep.Config
	// SweepGrid spans the scenario space (modes × policies ×
	// scheduler policies × node counts × trace shapes × failure rates
	// × topologies × routings × switch latencies).
	SweepGrid = sweep.Grid
	// SweepCell is one concrete grid point with its derived seeds.
	SweepCell = sweep.Cell
	// SweepOutcome aggregates cell results; see Ranked/Table/Rows.
	SweepOutcome = sweep.Outcome
	// SweepCellResult pairs a cell with its run result.
	SweepCellResult = sweep.CellResult
	// SweepTraceSpec is one point on the trace-shape axis.
	SweepTraceSpec = sweep.TraceSpec
	// SweepPolicySpec names a controller-policy constructor.
	SweepPolicySpec = sweep.PolicySpec
	// SweepTopologySpec is one point on the topology axis: a single
	// cluster or a campus fabric of members.
	SweepTopologySpec = sweep.TopologySpec
	// SweepTopologyMember configures one member of a topology spec.
	SweepTopologyMember = sweep.TopologyMember
)

// Topology member splits.
const (
	SplitHalf       = sweep.SplitHalf
	SplitAllLinux   = sweep.SplitAllLinux
	SplitAllWindows = sweep.SplitAllWindows
)

// DefaultTopologies returns the named fabric presets ("single",
// "campus", "twin-hybrid") the sweep CLI understands.
func DefaultTopologies() []SweepTopologySpec { return sweep.DefaultTopologies() }

// TopologyByName finds a fabric preset; unknown names error with the
// valid set.
func TopologyByName(name string) (SweepTopologySpec, error) { return sweep.TopologyByName(name) }

// Sweep runs every cell of a parameter grid on a bounded worker pool.
// The outcome is bit-identical regardless of Workers.
func Sweep(cfg SweepConfig) (*SweepOutcome, error) { return sweep.Run(cfg) }

// ParseSweepGrid parses the qsim CLI's compact grid notation, e.g.
// "modes=hybrid-v2,static-split;nodes=8,16;winfracs=0.25,0.5". Keys,
// parsers and validation derive from the sweep axis registry; unknown
// and repeated keys error.
func ParseSweepGrid(spec string) (SweepGrid, error) { return sweep.ParseGridSpec(spec) }

// SweepGridString renders a grid back to canonical compact notation
// (the inverse of ParseSweepGrid); it errors when the grid holds
// something the notation cannot express (custom traces, bespoke
// topologies).
func SweepGridString(g SweepGrid) (string, error) { return sweep.GridString(g) }

// Experiment documents: a SweepSpec is a versioned, replayable JSON
// artifact (spec_version, grid, seeds, horizon) with a byte-stable
// canonical serialisation. `qsim run -f` / `qsim sweep -f` replay
// them, and each swept experiment in internal/experiments runs its
// committed document under specs/.
type SweepSpec = sweep.Spec

// SweepSpecVersion is the document version LoadSweepSpec accepts and
// SaveSweepSpec writes.
const SweepSpecVersion = sweep.SpecVersion

// LoadSweepSpec parses an experiment document; unknown spec_versions
// and unknown axis keys error listing the valid set.
func LoadSweepSpec(r io.Reader) (SweepSpec, error) { return sweep.LoadSpec(r) }

// SaveSweepSpec writes a document's canonical byte-stable form.
func SaveSweepSpec(w io.Writer, sp SweepSpec) error { return sweep.SaveSpec(w, sp) }

// SweepSpecKeys lists the valid grid-spec / document axis keys in
// registry order.
func SweepSpecKeys() []string { return sweep.SpecKeys() }
