// Package winhpc simulates the Microsoft Windows HPC Server 2008 R2
// job scheduler that runs the Windows side of the hybrid cluster.
// Unlike Torque (which the paper's detector scrapes as text), Windows
// HPC ships an SDK, so this package exposes a programmatic API —
// mirroring how the paper's Windows-side detector and communicator
// were built against the HPC Pack SDK.
//
// Scheduling follows the product's "Queued" policy: first-come
// first-served over resource units, with an optional backfill switch.
// The default resource unit is the core; node-exclusive jobs take
// whole nodes, which is what MPI and the MATLAB MDCS case study use.
package winhpc

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
)

// JobState follows the HPC Pack state machine (condensed to the states
// the middleware observes).
type JobState uint8

const (
	JobQueued JobState = iota
	JobRunning
	JobFinished
	JobFailed
	JobCanceled
)

// String names the state like the HPC Pack UI.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "Queued"
	case JobRunning:
		return "Running"
	case JobFinished:
		return "Finished"
	case JobFailed:
		return "Failed"
	case JobCanceled:
		return "Canceled"
	default:
		return "Unknown"
	}
}

// ResourceUnit selects what a job's Min/Max counts mean.
type ResourceUnit uint8

const (
	// UnitCore schedules individual cores anywhere in the cluster.
	UnitCore ResourceUnit = iota
	// UnitNode schedules whole nodes exclusively.
	UnitNode
)

// String names the unit.
func (u ResourceUnit) String() string {
	if u == UnitNode {
		return "Node"
	}
	return "Core"
}

// Allocation records cores granted on one node.
type Allocation struct {
	Node  string
	Cores int
}

// Job is a Windows HPC job. The simulation uses a single required
// resource count rather than the product's min–max range; grow/shrink
// is out of scope for the middleware's behaviour.
type Job struct {
	ID       int
	Name     string
	Owner    string
	Template string
	State    JobState
	Unit     ResourceUnit
	Count    int // cores (UnitCore) or nodes (UnitNode)

	Runtime    time.Duration
	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration

	Rerunnable bool
	Priority   Priority
	Alloc      []Allocation

	// Exec runs at job start with the allocated node names; OnEnd
	// fires at completion, failure or cancellation.
	Exec  func(nodes []string)
	OnEnd func(*Job)

	// e is the job's entry in the scheduler's core.
	e sched.Entry
}

// Cores returns the total cores the job occupies once allocated, or
// would occupy given 0 knowledge of node sizes for UnitNode jobs.
func (j *Job) Cores(coresPerNode int) int {
	if j.Unit == UnitCore {
		return j.Count
	}
	return j.Count * coresPerNode
}

// AllocatedNodes lists distinct node names in allocation order.
func (j *Job) AllocatedNodes() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range j.Alloc {
		if !seen[a.Node] {
			seen[a.Node] = true
			out = append(out, a.Node)
		}
	}
	return out
}

// NodeState follows the HPC Pack node states the middleware cares
// about.
type NodeState uint8

const (
	NodeOnline NodeState = iota
	NodeOffline
	NodeUnreachable
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeOffline:
		return "Offline"
	case NodeUnreachable:
		return "Unreachable"
	default:
		return "Online"
	}
}

// Node is a compute node from the scheduler's perspective. Its state
// and core occupancy live in the scheduler's core.
type Node struct {
	Name     string
	Cores    int
	Template string
	core     *sched.Core
	idx      int // index in the core's node table
}

// State returns the node state.
func (n *Node) State() NodeState {
	switch n.core.State(n.idx) {
	case sched.Offline:
		return NodeOffline
	case sched.Down:
		return NodeUnreachable
	}
	return NodeOnline
}

// FreeCores returns schedulable cores (0 unless online).
func (n *Node) FreeCores() int {
	if n.core.State(n.idx) != sched.Up {
		return 0
	}
	return n.Cores - n.UsedCores()
}

// UsedCores returns cores currently allocated.
func (n *Node) UsedCores() int { return n.core.Used(n.idx) }

// Priority follows the HPC Pack five-level job priority.
type Priority int8

const (
	PriorityLowest      Priority = -2
	PriorityBelowNormal Priority = -1
	PriorityNormal      Priority = 0
	PriorityAboveNormal Priority = 1
	PriorityHighest     Priority = 2
)

// String names the priority level.
func (p Priority) String() string {
	switch p {
	case PriorityLowest:
		return "Lowest"
	case PriorityBelowNormal:
		return "BelowNormal"
	case PriorityAboveNormal:
		return "AboveNormal"
	case PriorityHighest:
		return "Highest"
	default:
		return "Normal"
	}
}

// JobSpec is the submission request (a subset of the SDK's
// ISchedulerJob properties).
type JobSpec struct {
	Name     string
	Owner    string
	Template string
	Unit     ResourceUnit
	Count    int
	Runtime  time.Duration
	Rerun    bool
	Priority Priority
	Exec     func(nodes []string)
	OnEnd    func(*Job)
}

// Scheduler is the head-node scheduler service. The queueing itself
// is the shared scheduling core (internal/sched); the scheduler keeps
// the HPC Pack job model, validation and views.
type Scheduler struct {
	eng     *simtime.Engine
	cluster string
	core    *sched.Core

	list     []*Job // submission order; job n is list[n-1]
	nodes    map[string]*Node
	nodeList []*Node // registration order, indexed like the core's table

	// allCores sums every configured node, any state: the submission
	// cap. coresHist counts configured nodes by core count for the
	// cached modal node size cpn (typicalCores).
	allCores  int
	coresHist map[int]int
	cpn       int

	// Backfill enables the product's "backfilling" option, modelled as
	// reservation-based EASY backfill: a job may jump the blocked
	// queue head only when it cannot delay the head's earliest
	// reservation. Off in the paper's deployment. An earlier revision
	// shipped unreserved greedy backfill here, which let a stream of
	// narrow jobs starve a blocked wide job indefinitely.
	Backfill bool

	// OnJobRequeue fires when a running rerunnable job loses a node
	// and returns to the queue; the metrics recorder needs it to stop
	// busy-core integration between attempts.
	OnJobStart   func(*Job)
	OnJobEnd     func(*Job)
	OnJobRequeue func(*Job)
}

// NewScheduler creates the scheduler for a named cluster.
func NewScheduler(eng *simtime.Engine, cluster string) *Scheduler {
	s := &Scheduler{
		eng:       eng,
		cluster:   cluster,
		nodes:     make(map[string]*Node),
		coresHist: make(map[int]int),
		cpn:       4,
	}
	s.core = sched.New(eng, sched.Face{Backfill: &s.Backfill, Started: s.started, Finished: s.finished})
	return s
}

// ClusterName returns the head node name.
func (s *Scheduler) ClusterName() string { return s.cluster }

// AddNode registers a compute node; online=false models a node
// currently booted into the other OS.
func (s *Scheduler) AddNode(name string, cores int, online bool) (*Node, error) {
	if _, ok := s.nodes[name]; ok {
		return nil, fmt.Errorf("winhpc: node %s already exists", name)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("winhpc: node %s: bad core count %d", name, cores)
	}
	n := &Node{Name: name, Cores: cores, Template: "Default ComputeNode Template", core: s.core}
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	s.allCores += cores
	s.coresHist[cores]++
	s.recomputeTypicalCores()
	st := sched.Down
	if online {
		st = sched.Up
	}
	n.idx = s.core.AddNode(cores, st)
	return n, nil
}

// Node returns a node by name.
func (s *Scheduler) Node(name string) (*Node, error) {
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("winhpc: unknown node %s", name)
	}
	return n, nil
}

// Nodes lists nodes in registration order.
func (s *Scheduler) Nodes() []*Node { return slices.Clone(s.nodeList) }

// SetNodeOnline flips a node between Online and Unreachable (the state
// a node shows when it has rebooted into Linux). Running jobs lose
// their cores; rerunnable jobs requeue, others fail.
func (s *Scheduler) SetNodeOnline(name string, online bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("winhpc: unknown node %s", name)
	}
	if online {
		s.core.SetNode(n.idx, sched.Up)
		return nil
	}
	s.core.SetNode(n.idx, sched.Down)
	// Victims in submission order, so requeue/end hooks fire in a
	// deterministic order.
	for _, e := range s.core.Holding(n.idx) {
		j := s.job(e)
		if s.core.Interrupt(e) {
			j.State = JobQueued
			j.Alloc = nil
			if s.OnJobRequeue != nil {
				s.OnJobRequeue(j)
			}
		} else {
			s.end(j, JobFailed)
		}
	}
	s.core.Kick()
	return nil
}

// SetNodeOffline administratively drains a node (no new allocations,
// running jobs continue).
func (s *Scheduler) SetNodeOffline(name string, offline bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("winhpc: unknown node %s", name)
	}
	if offline {
		s.core.SetNode(n.idx, sched.Offline)
	} else {
		s.core.SetNode(n.idx, sched.Up)
	}
	return nil
}

// SubmitJob validates and enqueues a job. Requests exceeding the
// configured node table are rejected at submission (HPC Pack validates
// resource requests against the cluster's node groups); unreachable
// nodes still count, since they may come back.
func (s *Scheduler) SubmitJob(spec JobSpec) (*Job, error) {
	if spec.Count <= 0 {
		spec.Count = 1
	}
	if spec.Name == "" {
		spec.Name = "Job"
	}
	if spec.Owner == "" {
		spec.Owner = "HPC\\user"
	}
	if spec.Runtime < 0 {
		return nil, fmt.Errorf("winhpc: negative runtime")
	}
	shape := sched.Anywhere
	switch spec.Unit {
	case UnitNode:
		if spec.Count > len(s.nodes) {
			return nil, fmt.Errorf("winhpc: job needs %d nodes, cluster has %d", spec.Count, len(s.nodes))
		}
		shape = sched.Whole
	default:
		if spec.Count > s.allCores {
			return nil, fmt.Errorf("winhpc: job needs %d cores, cluster has %d", spec.Count, s.allCores)
		}
	}
	j := &Job{
		ID:         len(s.list) + 1,
		Name:       spec.Name,
		Owner:      spec.Owner,
		Template:   spec.Template,
		State:      JobQueued,
		Unit:       spec.Unit,
		Count:      spec.Count,
		Runtime:    spec.Runtime,
		SubmitTime: s.eng.Now(),
		Rerunnable: spec.Rerun,
		Priority:   spec.Priority,
		Exec:       spec.Exec,
		OnEnd:      spec.OnEnd,
	}
	// The HPC job model has no walltime: the runtime bounds the run.
	j.e = sched.Entry{Prio: int8(j.Priority), Seq: j.ID, Shape: shape, Count: j.Count,
		Runtime: j.Runtime, Rerun: j.Rerunnable}
	s.list = append(s.list, j)
	s.core.Submit(&j.e)
	return j, nil
}

// CancelJob cancels a queued or running job.
func (s *Scheduler) CancelJob(id int) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	switch j.State {
	case JobQueued:
		s.core.Withdraw(&j.e)
		s.end(j, JobCanceled)
	case JobRunning:
		s.core.Stop(&j.e)
		s.end(j, JobCanceled)
		s.core.Kick()
	default:
		return fmt.Errorf("winhpc: job %d already %s", id, j.State)
	}
	return nil
}

// Job returns a job by ID.
func (s *Scheduler) Job(id int) (*Job, error) {
	if id < 1 || id > len(s.list) {
		return nil, fmt.Errorf("winhpc: unknown job %d", id)
	}
	return s.list[id-1], nil
}

// Jobs returns all jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return slices.Clone(s.list) }

// job maps a core entry to its job: entries carry the job's ID.
func (s *Scheduler) job(e *sched.Entry) *Job { return s.list[e.Seq-1] }

// jobsOf maps core entries to their jobs.
func (s *Scheduler) jobsOf(es []*sched.Entry) []*Job {
	out := make([]*Job, len(es))
	for i, e := range es {
		out[i] = s.job(e)
	}
	return out
}

// QueuedJobs returns waiting jobs in scheduling order: priority
// descending (the HPC Pack "Queued" policy), submission order within
// a level.
func (s *Scheduler) QueuedJobs() []*Job { return s.jobsOf(s.core.Queue()) }

// RunningJobs returns executing jobs in submission order.
func (s *Scheduler) RunningJobs() []*Job { return s.jobsOf(s.core.Running()) }

// TotalCores sums cores over nodes that are not unreachable.
func (s *Scheduler) TotalCores() int { return s.core.Census().SlotsUp }

// OnlineNodes counts online nodes.
func (s *Scheduler) OnlineNodes() int { return s.core.Census().NodesOnline }

// QueueSnapshot is the condensed queue view the detector polls through
// the SDK (job counts plus the head-of-queue demand).
type QueueSnapshot struct {
	Running      int
	Queued       int
	FirstQueued  int    // job ID, 0 when the queue is empty
	FirstName    string // job name of the queue head
	NeededCores  int    // cores the queue head requires
	OnlineCores  int
	PendingCores int // total cores requested by all queued jobs
}

// Snapshot builds the queue view from the maintained counters — O(1)
// apart from skipping stale entries ahead of the queue head.
func (s *Scheduler) Snapshot() QueueSnapshot {
	cpn := s.typicalCores()
	c := s.core.Census()
	snap := QueueSnapshot{
		OnlineCores:  c.SlotsOnline,
		Running:      c.Running,
		Queued:       c.Queued,
		PendingCores: c.QueuedSlots + c.QueuedWhole*cpn,
	}
	// The queue head follows scheduling order (priority first), since
	// that is the job whose demand a dual-boot controller must satisfy.
	if e := s.core.First(); e != nil {
		head := s.job(e)
		snap.FirstQueued = head.ID
		snap.FirstName = head.Name
		snap.NeededCores = head.Cores(cpn)
	}
	return snap
}

// typicalCores returns the modal node size for UnitNode→core
// conversion (cached; recomputed when nodes register). The Eridani
// nodes are uniform quad-cores.
func (s *Scheduler) typicalCores() int { return s.cpn }

// recomputeTypicalCores rebuilds the cached modal node size from the
// core-count histogram, smallest size winning ties, 4 when the node
// table is empty.
func (s *Scheduler) recomputeTypicalCores() {
	best, bestCount := 4, 0
	keys := make([]int, 0, len(s.coresHist))
	for k := range s.coresHist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if s.coresHist[k] > bestCount {
			best, bestCount = k, s.coresHist[k]
		}
	}
	s.cpn = best
}

// started records the core's grants as the job's allocation and starts
// it.
func (s *Scheduler) started(e *sched.Entry) {
	j := s.job(e)
	grants := s.core.Grants(e)
	j.Alloc = make([]Allocation, len(grants))
	for i, g := range grants {
		j.Alloc[i] = Allocation{Node: s.nodeList[g.Node].Name, Cores: g.Slots}
	}
	j.State = JobRunning
	j.StartTime = s.eng.Now()
	if s.OnJobStart != nil {
		s.OnJobStart(j)
	}
	if j.Exec != nil {
		j.Exec(j.AllocatedNodes())
	}
}

func (s *Scheduler) finished(e *sched.Entry) { s.end(s.job(e), JobFinished) }

// end moves a job to a terminal state and fires the end hooks.
func (s *Scheduler) end(j *Job, st JobState) {
	j.State = st
	j.EndTime = s.eng.Now()
	if s.OnJobEnd != nil {
		s.OnJobEnd(j)
	}
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}
