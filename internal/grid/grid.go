// Package grid models the Queensgate Grid (QGG) context the paper
// deploys into: "This hybrid cluster is utilised as part of the
// University of Huddersfield campus grid." Several clusters — hybrid,
// static Linux-only, static Windows-only — share one virtual clock,
// and a campus router places incoming jobs on a member that can serve
// their operating system, balancing by pending demand.
package grid

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/driver"
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
// bit-identical-output contract.
type Grid struct {
	Eng       *simtime.Engine
	members   []*Member
	policy    RoutingPolicy
	rrNext    int
	routed    map[string]int // jobs per member
	completed map[string]int // jobs finished per member (via cluster hooks)
	dropped   int
	scheduled int // grid-level submissions not yet routed
}

// MemberSpec configures one grid member.
type MemberSpec struct {
	Name   string
	Config cluster.Config
}

// New assembles a grid; all members share the grid's engine. Member
// order follows the spec order and is the routing tie-break order.
func New(policy RoutingPolicy, specs []MemberSpec) (*Grid, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("grid: no members")
	}
	g := &Grid{
		Eng:       simtime.NewEngine(),
		policy:    policy,
		routed:    map[string]int{},
		completed: map[string]int{},
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("grid: member needs a name")
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("grid: duplicate member %q", spec.Name)
		}
		seen[spec.Name] = true
		cfg := spec.Config
		cfg.Engine = g.Eng
		cfg.NamePrefix = spec.Name
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("grid: member %s: %w", spec.Name, err)
		}
		name := spec.Name
		// Completion observer instead of polling: the member tells the
		// grid when a routed job leaves the system. Walltime kills and
		// failures report completed=false and are not counted.
		c.AddHooks(cluster.Hooks{JobCompleted: func(_ int, completed bool) {
			if completed {
				g.completed[name]++
			}
		}})
		g.members = append(g.members, &Member{Name: spec.Name, Cluster: c})
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

// RoutedCounts returns jobs routed per member.
func (g *Grid) RoutedCounts() map[string]int {
	out := make(map[string]int, len(g.routed))
	for k, v := range g.routed {
		out[k] = v
	}
	return out
}

// CompletedCounts returns jobs finished per member, maintained by the
// members' completion hooks rather than by polling their summaries.
func (g *Grid) CompletedCounts() map[string]int {
	out := make(map[string]int, len(g.completed))
	for k, v := range g.completed {
		out[k] = v
	}
	return out
}

// Dropped returns jobs no member could serve.
func (g *Grid) Dropped() int { return g.dropped }

// Route picks a member for a job and submits it there.
func (g *Grid) Route(j workload.Job) (*Member, error) {
	candidates := g.candidatesFor(j)
	if len(candidates) == 0 {
		g.dropped++
		return nil, fmt.Errorf("grid: no member can serve %s job %q", j.OS, j.App)
	}
	m := g.pick(candidates, j)
	if _, err := m.Cluster.Submit(j); err != nil {
		// Capability said yes but the scheduler refused (e.g. job too
		// wide for the member): try the remaining candidates.
		for _, alt := range candidates {
			if alt == m {
				continue
			}
			if _, err2 := alt.Cluster.Submit(j); err2 == nil {
				g.routed[alt.Name]++
				return alt, nil
			}
		}
		g.dropped++
		return nil, fmt.Errorf("grid: no member accepted %q: %w", j.App, err)
	}
	g.routed[m.Name]++
	return m, nil
}

func (g *Grid) candidatesFor(j workload.Job) []*Member {
	var out []*Member
	for _, m := range g.members {
		if m.CanServe(j.OS) {
			out = append(out, m)
		}
	}
	return out
}

// pick selects among candidates, which arrive in member (spec) order.
// Every branch is order-stable: round-robin advances a counter over
// that order, and the load-based policies break ties toward the
// earliest member, so repeated runs of the same grid route every job
// identically.
func (g *Grid) pick(candidates []*Member, j workload.Job) *Member {
	switch g.policy {
	case RouteRoundRobin:
		m := candidates[g.rrNext%len(candidates)]
		g.rrNext++
		return m
	case RouteHybridLast:
		var statics []*Member
		for _, m := range candidates {
			if m.Cluster.Config().Mode == cluster.Static {
				statics = append(statics, m)
			}
		}
		if len(statics) > 0 {
			return leastLoaded(statics, j.OS)
		}
		return leastLoaded(candidates, j.OS)
	default:
		return leastLoaded(candidates, j.OS)
	}
}

// leastLoaded returns the member with the lowest pending demand per
// core. The strict `<` keeps the earliest member on equal load — the
// explicit deterministic tie-break the sweep's bit-identical contract
// relies on.
func leastLoaded(members []*Member, os osid.OS) *Member {
	best := members[0]
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
	g.scheduled += len(trace)
	g.Eng.Chain(len(trace), func(i int) time.Duration { return trace[i].At }, func(i int) {
		g.scheduled--
		_, _ = g.Route(trace[i]) // drops are counted
	})
	return nil
}

// Busy implements driver.Workload: grid-level submissions not yet
// routed, or any member with outstanding work.
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

// Quiesce implements driver.Workload: stop every member's controller.
func (g *Grid) Quiesce() {
	for _, m := range g.members {
		m.Cluster.Quiesce()
	}
}

// RunUntilDrained advances the shared clock on the same quiescence
// driver the single cluster uses: event-to-event hops across every
// member, stopping the instant the whole fabric goes quiet or riding
// to the horizon when a member wedges.
func (g *Grid) RunUntilDrained(horizon time.Duration) {
	driver.Drain(g.Eng, horizon, g)
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
			fmt.Sprintf("%d", g.routed[m.Name]),
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
