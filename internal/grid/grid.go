// Package grid models the Queensgate Grid (QGG) context the paper
// deploys into: "This hybrid cluster is utilised as part of the
// University of Huddersfield campus grid." Several clusters — hybrid,
// static Linux-only, static Windows-only — share one virtual clock,
// and a campus router places incoming jobs on a member that can serve
// their operating system, balancing by pending demand.
package grid

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// RoutingPolicy selects a member for a job.
type RoutingPolicy uint8

const (
	// RouteLeastLoaded picks the capable member with the lowest
	// pending CPU demand per core.
	RouteLeastLoaded RoutingPolicy = iota
	// RouteRoundRobin cycles through capable members.
	RouteRoundRobin
	// RouteHybridLast prefers single-OS members, keeping the flexible
	// hybrid free to absorb overflow (a common campus-grid rule).
	RouteHybridLast
)

// String names the policy.
func (p RoutingPolicy) String() string {
	switch p {
	case RouteRoundRobin:
		return "round-robin"
	case RouteHybridLast:
		return "hybrid-last"
	default:
		return "least-loaded"
	}
}

// ParsePolicy resolves a routing policy by its String name; the qsim
// CLI and the sweep grid-spec parser share this registry.
func ParsePolicy(name string) (RoutingPolicy, error) {
	for _, p := range []RoutingPolicy{RouteLeastLoaded, RouteRoundRobin, RouteHybridLast} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("grid: unknown routing policy %q", name)
}

// Member is one cluster on the grid.
type Member struct {
	Name    string
	Cluster *cluster.Cluster
}

// CanServe reports whether the member can ever run a job on the given
// OS: a static split only serves an OS if it has nodes on that side;
// hybrids serve both.
func (m *Member) CanServe(os osid.OS) bool {
	if !os.Valid() {
		return false
	}
	cfg := m.Cluster.Config()
	if cfg.Mode != cluster.Static {
		return true
	}
	switch os {
	case osid.Linux:
		return cfg.InitialLinux > 0
	case osid.Windows:
		return cfg.Nodes-cfg.InitialLinux > 0
	default:
		return false
	}
}

// pendingPerCore estimates load: queued CPU demand over total cores.
func (m *Member) pendingPerCore(os osid.OS) float64 {
	cfg := m.Cluster.Config()
	cores := cfg.Nodes * cfg.CoresPerNode
	if cores == 0 {
		return 0
	}
	side := m.Cluster.SideInfo(os)
	return float64(side.QueuedCPUs+side.RunningJobs) / float64(cores)
}

// Grid is the campus fabric. Routing is deterministic by
// construction: members keep their spec order in g.members, every
// candidate set preserves that order, and all tie-breaks resolve to
// the earliest member — so grid cells honour the sweep's
// bit-identical-output contract. A single cluster runs as a one-member
// grid, so every trace reaches a cluster through Route.
type Grid struct {
	Eng     *simtime.Engine
	members []*Member
	policy  RoutingPolicy
	rrNext  int
	// capable lists the members that can serve each OS and statics the
	// static splits among them (hybrid-last's preference), in member
	// order, so Route builds no slice per job.
	capable, statics [int(osid.Windows) + 1][]*Member
	dropped          int
	scheduled        int // grid-level submissions not yet routed
}

// MemberSpec configures one grid member.
type MemberSpec struct {
	Name   string
	Config cluster.Config
}

// New assembles a grid on a new engine; all members share the grid's
// engine. Member order follows the spec order and is the routing
// tie-break order. Members need distinct names, except that a sole
// member may go unnamed: that is how a single cluster runs.
func New(policy RoutingPolicy, specs []MemberSpec) (*Grid, error) {
	return NewOn(simtime.NewEngine(), policy, specs)
}

// NewOn is New on the caller's engine, which must be new or Reset: a
// sweep worker runs its cells one after another on one engine.
func NewOn(eng *simtime.Engine, policy RoutingPolicy, specs []MemberSpec) (*Grid, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("grid: no members")
	}
	g := &Grid{Eng: eng, policy: policy}
	for i, spec := range specs {
		if spec.Name == "" && len(specs) > 1 {
			return nil, fmt.Errorf("grid: member needs a name")
		}
		for _, prev := range specs[:i] {
			if prev.Name == spec.Name {
				return nil, fmt.Errorf("grid: duplicate member %q", spec.Name)
			}
		}
		cfg := spec.Config
		cfg.Engine = g.Eng
		cfg.NamePrefix = spec.Name
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("grid: member %q: %w", spec.Name, err)
		}
		m := &Member{Name: spec.Name, Cluster: c}
		g.members = append(g.members, m)
		for _, os := range []osid.OS{osid.Linux, osid.Windows} {
			if m.CanServe(os) {
				g.capable[os] = append(g.capable[os], m)
				if c.Config().Mode == cluster.Static {
					g.statics[os] = append(g.statics[os], m)
				}
			}
		}
	}
	return g, nil
}

// Members returns the member list.
func (g *Grid) Members() []*Member { return append([]*Member(nil), g.members...) }

// Member finds a member by name.
func (g *Grid) Member(name string) (*Member, bool) {
	for _, m := range g.members {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// RoutedCounts returns jobs routed per member, members that got none
// left out: every job a member's scheduler accepted is one row in its
// recorder.
func (g *Grid) RoutedCounts() map[string]int {
	out := map[string]int{}
	for _, m := range g.members {
		if n := m.Cluster.Rec.Submitted(); n > 0 {
			out[m.Name] = n
		}
	}
	return out
}

// Dropped returns jobs no member could serve.
func (g *Grid) Dropped() int { return g.dropped }

// ErrUnservable is Route's error for a job whose OS no member can serve.
var ErrUnservable = errors.New("grid: no member can serve the job's OS")

// Route picks a member for a job and submits it there. The first
// choice comes from the routing policy; if its scheduler refuses the
// job (e.g. too wide for the member), the other capable members are
// tried in member order. A job that gets nowhere is booked by one rule:
//   - if no member's configuration can serve its OS (a static split
//     with no node on that side cannot), it is Dropped and Route
//     returns ErrUnservable;
//   - if every capable member's scheduler refuses it, it is a submit
//     failure of the router's first choice (cluster.RecordSubmitFailure)
//     and Route returns that scheduler's error.
func (g *Grid) Route(j workload.Job) (*Member, error) {
	var candidates []*Member
	if j.OS.Valid() {
		candidates = g.capable[j.OS]
	}
	if len(candidates) == 0 {
		g.dropped++
		return nil, ErrUnservable
	}
	m := g.pick(candidates, j.OS)
	_, err := m.Cluster.Submit(j)
	if err == nil {
		return m, nil
	}
	for _, alt := range candidates {
		if alt == m {
			continue
		}
		if _, err2 := alt.Cluster.Submit(j); err2 == nil {
			return alt, nil
		}
	}
	m.Cluster.RecordSubmitFailure(j, err)
	return nil, err
}

// pick selects among the candidates for an OS, which arrive in member
// (spec) order. Every branch is order-stable: round-robin advances a
// counter over that order, and the load-based policies break ties
// toward the earliest member, so repeated runs of the same grid route
// every job identically.
func (g *Grid) pick(candidates []*Member, os osid.OS) *Member {
	switch g.policy {
	case RouteRoundRobin:
		m := candidates[g.rrNext%len(candidates)]
		g.rrNext++
		return m
	case RouteHybridLast:
		if statics := g.statics[os]; len(statics) > 0 {
			return leastLoaded(statics, os)
		}
	}
	return leastLoaded(candidates, os)
}

// leastLoaded returns the member with the lowest pending demand per
// core; a sole member is taken without reading its load. The strict
// `<` keeps the earliest member on equal load — the explicit
// deterministic tie-break the sweep's bit-identical contract relies on.
func leastLoaded(members []*Member, os osid.OS) *Member {
	best := members[0]
	if len(members) == 1 {
		return best
	}
	bestLoad := best.pendingPerCore(os)
	for _, m := range members[1:] {
		if load := m.pendingPerCore(os); load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best
}

// ScheduleTrace arranges routing for every job at its submission time.
// The arrivals are an engine Chain: one is queued at a time, in the
// order scheduling them all now would give. The grid keeps a
// reference to trace, so the caller must not modify it during the run.
func (g *Grid) ScheduleTrace(trace workload.Trace) error {
	if err := trace.Validate(); err != nil {
		return err
	}
	g.reserve(trace)
	g.scheduled += len(trace)
	g.Eng.Chain(len(trace), func(i int) time.Duration { return trace[i].At }, func(i int) {
		g.scheduled--
		_, _ = g.Route(trace[i]) // Route books drops and refusals
	})
	return nil
}

// reserve has a member that alone can serve an OS size its job
// bookkeeping for the trace's jobs of that OS: they can go nowhere
// else, so a grid never reserves more than the trace holds, and a
// one-member grid reserves for the whole trace.
func (g *Grid) reserve(trace workload.Trace) {
	var jobs [int(osid.Windows) + 1]int
	for i := range trace {
		jobs[trace[i].OS]++ // validated: Linux or Windows
	}
	for _, m := range g.members {
		var n [len(jobs)]int
		for os, c := range g.capable {
			if len(c) == 1 && c[0] == m {
				n[os] = jobs[os]
			}
		}
		m.Cluster.Reserve(n[osid.Linux], n[osid.Windows])
	}
}

// Snapshot sums the members' snapshots at the current instant: the
// fabric's node-count view for time series.
func (g *Grid) Snapshot() cluster.Snapshot {
	out := cluster.Snapshot{At: g.Eng.Now()}
	for _, m := range g.members {
		s := m.Cluster.TakeSnapshot()
		out.LinuxNodes += s.LinuxNodes
		out.WindowsNodes += s.WindowsNodes
		out.Switching += s.Switching
		out.Broken += s.Broken
		out.LinuxRunning += s.LinuxRunning
		out.LinuxQueued += s.LinuxQueued
		out.WindowsQueued += s.WindowsQueued
		out.WindowsRun += s.WindowsRun
	}
	return out
}

// Busy reports outstanding work: grid-level submissions not yet
// routed, or any member with unfinished jobs or switches in flight.
func (g *Grid) Busy() bool {
	if g.scheduled > 0 {
		return true
	}
	for _, m := range g.members {
		if m.Cluster.Busy() {
			return true
		}
	}
	return false
}

// Quiesce stops every member's controller.
func (g *Grid) Quiesce() {
	for _, m := range g.members {
		m.Cluster.Quiesce()
	}
}

// RunUntilDrained advances the shared clock event to event across
// every member until the whole fabric goes quiet, then quiesces it. It
// stops at the exact quiescence instant, waking only when an event is
// due. A non-positive horizon means effectively unbounded; a fabric
// that wedges (Busy forever, with nothing scheduled that can unwedge
// it) rides the clock to the horizon and returns, so it can never hang
// the caller.
func (g *Grid) RunUntilDrained(horizon time.Duration) {
	if horizon <= 0 {
		horizon = simtime.MaxDuration / 2
	}
	g.Eng.RunWhile(horizon, g.Busy)
	g.Quiesce()
}

// Report summarises every member.
func (g *Grid) Report() string {
	header := []string{"member", "mode", "routed", "util", "done(L)", "done(W)", "switches"}
	var rows [][]string
	for _, m := range g.members {
		s := m.Cluster.Summary()
		rows = append(rows, []string{
			m.Name,
			m.Cluster.Config().Mode.String(),
			fmt.Sprintf("%d", m.Cluster.Rec.Submitted()),
			metrics.Pct(s.Utilisation),
			fmt.Sprintf("%d", s.JobsCompleted[osid.Linux]),
			fmt.Sprintf("%d", s.JobsCompleted[osid.Windows]),
			fmt.Sprintf("%d", s.Switches),
		})
	}
	out := metrics.Table(header, rows)
	if g.dropped > 0 {
		out += fmt.Sprintf("dropped: %d jobs no member could serve\n", g.dropped)
	}
	return out
}
