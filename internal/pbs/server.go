package pbs

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
)

// NodeState mirrors pbsnodes state values.
type NodeState string

const (
	NodeFree      NodeState = "free"
	NodeExclusive NodeState = "job-exclusive"
	NodeOffline   NodeState = "offline"
	NodeDown      NodeState = "down"
)

// Node is a pbs_mom as seen by the server. Its state and slot
// occupancy live in the server's scheduling core; the node keeps the
// CPU-slot identities Torque reports as "cpu/jobid".
type Node struct {
	Name       string
	NP         int
	Properties []string
	core       *sched.Core
	idx        int // index in the core's node table
	// busy[cpu] holds the job occupying that virtual processor (nil
	// when the slot is free).
	busy []*Job
}

// State derives the reported state: offline/down are administrative or
// connectivity conditions; otherwise free vs job-exclusive depends on
// occupancy.
func (n *Node) State() NodeState {
	switch n.core.State(n.idx) {
	case sched.Offline:
		return NodeOffline
	case sched.Down:
		return NodeDown
	}
	if n.UsedCPUs() >= n.NP {
		return NodeExclusive
	}
	return NodeFree
}

// FreeCPUs counts unoccupied virtual processors (0 when offline/down).
func (n *Node) FreeCPUs() int {
	if n.core.State(n.idx) != sched.Up {
		return 0
	}
	return n.NP - n.UsedCPUs()
}

// UsedCPUs counts occupied virtual processors.
func (n *Node) UsedCPUs() int { return n.core.Used(n.idx) }

// Jobs lists IDs of jobs with slots on this node, PBS-style
// "cpu/jobid" pairs sorted by CPU.
func (n *Node) Jobs() []string {
	out := make([]string, 0, n.UsedCPUs())
	for c, j := range n.busy {
		if j != nil {
			out = append(out, fmt.Sprintf("%d/%s", c, j.ID))
		}
	}
	return out
}

// Server is the pbs_server plus a strict-FCFS scheduler (the paper's
// deployment ran stock OSCAR scheduling: first-come first-served, no
// backfill — which is exactly what lets the head of the queue wedge
// the whole system and makes the "stuck" signal meaningful). The
// queueing itself is the shared scheduling core (internal/sched); the
// server keeps Torque's job IDs, queues, validation and renderings.
type Server struct {
	eng *simtime.Engine
	// domain is the cluster FQDN ("eridani.qgg.hud.ac.uk"): the head
	// node's own name, the suffix of job IDs, and the domain compute
	// node names are qualified with.
	domain string
	core   *sched.Core

	list     []*Job // submission order; job n is list[n-1]
	nodes    map[string]*Node
	nodeList []*Node // registration order, indexed like the core's table

	queues       map[string]*Queue
	defaultQueue string
	// lastName and lastQueue cache the most recent queue lookup.
	lastName  string
	lastQueue *Queue

	// npHist[c] counts configured nodes with NP == c (regardless of
	// state), giving Qsub's feasibility check without a node scan.
	npHist []int

	// Backfill enables reservation-based EASY backfill: later jobs may
	// jump a blocked queue head only when they cannot delay its
	// earliest reservation (shadow time). The paper's system has it
	// off. An earlier revision shipped unreserved greedy backfill
	// here, which let a stream of narrow jobs starve a wide head job
	// indefinitely.
	Backfill bool

	// Hooks for the metrics recorder and the controller. OnJobRequeue
	// fires when a running rerunnable job loses its node and returns
	// to the queue — the recorder needs it to stop busy-core
	// integration between the attempts.
	OnJobStart   func(*Job)
	OnJobEnd     func(*Job)
	OnJobRequeue func(*Job)

	// BaseDate maps virtual time zero to a wall-clock date for the
	// qstat/pbsnodes renderings. The default matches the paper's
	// trace captures (April 2010).
	BaseDate time.Time
}

// NewServer creates a PBS server on the simulation engine. fqdn is the
// cluster name used in job IDs and node qualification
// ("eridani.qgg.hud.ac.uk").
func NewServer(eng *simtime.Engine, fqdn string) *Server {
	s := &Server{
		eng:          eng,
		domain:       fqdn,
		nodes:        make(map[string]*Node),
		queues:       make(map[string]*Queue),
		defaultQueue: "default",
		BaseDate:     time.Date(2010, time.April, 16, 8, 0, 0, 0, time.UTC),
	}
	s.core = sched.New(eng, sched.Face{
		Backfill: &s.Backfill,
		// Jobs in stopped or capped queues wait without blocking.
		Skip:     func(e *sched.Entry) bool { return !s.schedulable(s.job(e)) },
		Started:  s.started,
		Finished: s.finished,
	})
	if _, err := s.CreateQueue("default"); err != nil {
		panic(err) // cannot happen: fresh map
	}
	return s
}

// Name returns the server's FQDN ("eridani.qgg.hud.ac.uk").
func (s *Server) Name() string { return s.domain }

// Domain returns the FQDN suffix.
func (s *Server) Domain() string { return s.domain }

// AddNode registers a compute node. Nodes join offline when avail is
// false (e.g. they are currently booted into Windows).
func (s *Server) AddNode(name string, np int, avail bool) (*Node, error) {
	if _, ok := s.nodes[name]; ok {
		return nil, fmt.Errorf("pbs: node %s already registered", name)
	}
	if np <= 0 {
		return nil, fmt.Errorf("pbs: node %s: bad np %d", name, np)
	}
	n := &Node{Name: name, NP: np, Properties: []string{"all"}, core: s.core, busy: make([]*Job, np)}
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	for len(s.npHist) <= np {
		s.npHist = append(s.npHist, 0)
	}
	s.npHist[np]++
	st := sched.Down
	if avail {
		st = sched.Up
	}
	n.idx = s.core.AddNode(np, st)
	return n, nil
}

// Node returns a registered node.
func (s *Server) Node(name string) (*Node, error) {
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("pbs: unknown node %s", name)
	}
	return n, nil
}

// Nodes lists nodes in registration order.
func (s *Server) Nodes() []*Node { return slices.Clone(s.nodeList) }

// SetNodeAvailable brings a node up (it re-registered after booting
// Linux) or marks it down (it rebooted away). Jobs running on a node
// that goes down are requeued if rerunnable, otherwise killed.
func (s *Server) SetNodeAvailable(name string, avail bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("pbs: unknown node %s", name)
	}
	if avail {
		s.core.SetNode(n.idx, sched.Up)
		return nil
	}
	s.core.SetNode(n.idx, sched.Down)
	// Victims in submission order, so the interrupt/requeue sequence
	// (and the hooks it fires) is deterministic.
	for _, e := range s.core.Holding(n.idx) {
		s.interruptJob(s.job(e))
	}
	return nil
}

// SetNodeOffline administratively drains a node without killing jobs;
// no new work is placed on it.
func (s *Server) SetNodeOffline(name string, offline bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("pbs: unknown node %s", name)
	}
	if offline {
		s.core.SetNode(n.idx, sched.Offline)
	} else {
		s.core.SetNode(n.idx, sched.Up)
	}
	return nil
}

// interruptJob handles a running job losing a node. A rerunnable job
// requeues; anything else dies mid-run and is marked failed so the
// accounting upstream cannot mistake it for a completed job.
func (s *Server) interruptJob(j *Job) {
	s.vacate(j)
	if s.core.Interrupt(&j.e) {
		j.State = StateQueued
		j.ExecHost = nil
		if s.OnJobRequeue != nil {
			s.OnJobRequeue(j)
		}
	} else {
		j.failed = true
		s.end(j)
	}
	s.core.Kick()
}

// Qsub submits a job. Requests that could never run on the configured
// node table are rejected, as Torque does ("cannot locate feasible
// nodes") — down nodes still count as configured, because a hybrid
// cluster's missing nodes may boot back at any time.
func (s *Server) Qsub(req SubmitRequest) (*Job, error) {
	if err := req.normalise(); err != nil {
		return nil, err
	}
	feasible := 0
	for np := req.PPN; np < len(s.npHist); np++ {
		feasible += s.npHist[np]
	}
	if feasible < req.Nodes {
		return nil, fmt.Errorf("pbs: qsub: cannot locate feasible nodes (nodes=%d:ppn=%d, %d candidates)",
			req.Nodes, req.PPN, feasible)
	}
	if req.Queue == "" {
		req.Queue = s.defaultQueue
	}
	q, ok := s.queues[req.Queue]
	if !ok {
		return nil, fmt.Errorf("pbs: qsub: unknown queue %q", req.Queue)
	}
	if !q.enabled {
		return nil, fmt.Errorf("pbs: qsub: queue %q is not enabled", req.Queue)
	}
	seq := len(s.list) + 1
	j := &Job{
		ID:         fmt.Sprintf("%d.%s", seq, s.Name()),
		SeqNo:      seq,
		Name:       req.Name,
		Owner:      req.Owner,
		State:      StateQueued,
		Queue:      req.Queue,
		Server:     s.Name(),
		Nodes:      req.Nodes,
		PPN:        req.PPN,
		Runtime:    req.Runtime,
		Walltime:   req.Walltime,
		Priority:   req.Priority,
		Rerunnable: req.Rerun,
		JoinOE:     req.JoinOE,
		OutputPath: req.Output,
		QTime:      s.eng.Now(),
		Exec:       req.Exec,
		OnEnd:      req.OnEnd,
	}
	// Torque's -p priority is reported, not scheduled on: the queue is
	// strict submission order.
	j.e = sched.Entry{Seq: seq, Shape: sched.PerNode, Count: j.Nodes, PPN: j.PPN,
		Runtime: j.Runtime, Walltime: j.Walltime, Rerun: j.Rerunnable}
	s.list = append(s.list, j)
	s.core.Submit(&j.e)
	return j, nil
}

// QsubScript parses a job script and submits it; owner is the
// submitting user. The script's commands are not interpreted — the
// Exec callback carries simulated behaviour.
func (s *Server) QsubScript(script, owner string, runtime time.Duration, exec func(hosts []string)) (*Job, error) {
	parsed, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	req := parsed.Request
	req.Owner = owner
	req.Runtime = runtime
	req.Exec = exec
	return s.Qsub(req)
}

// Qdel removes a queued job or kills a running one.
func (s *Server) Qdel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	switch j.State {
	case StateQueued, StateHeld:
		if j.State == StateQueued {
			s.core.Withdraw(&j.e)
		}
		j.State = StateComplete
		j.EndTime = s.eng.Now()
	case StateRunning:
		s.core.Stop(&j.e)
		s.vacate(j)
		j.killedAtLimit = true
		s.end(j)
		s.core.Kick()
	}
	return nil
}

// Qhold places a user hold on a queued job (state H); held jobs leave
// the scheduling queue until released. Running jobs cannot be held in
// this model.
func (s *Server) Qhold(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if j.State != StateQueued {
		return fmt.Errorf("pbs: qhold: job %s is %s, not queued", id, j.State)
	}
	j.State = StateHeld
	s.core.Withdraw(&j.e)
	return nil
}

// Qrls releases a held job back to its place in the queue.
func (s *Server) Qrls(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if j.State != StateHeld {
		return fmt.Errorf("pbs: qrls: job %s is %s, not held", id, j.State)
	}
	j.State = StateQueued
	s.core.Submit(&j.e)
	return nil
}

// Job returns a job by ID. IDs are "<SeqNo>.<server>", and SeqNo
// indexes the submission list.
func (s *Server) Job(id string) (*Job, error) {
	seq, _, _ := strings.Cut(id, ".")
	if n, err := strconv.Atoi(seq); err == nil && n >= 1 && n <= len(s.list) && s.list[n-1].ID == id {
		return s.list[n-1], nil
	}
	return nil, fmt.Errorf("pbs: unknown job %s", id)
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job { return slices.Clone(s.list) }

// job maps a core entry to its job: entries carry the job's SeqNo.
func (s *Server) job(e *sched.Entry) *Job { return s.list[e.Seq-1] }

// jobsOf maps core entries to their jobs.
func (s *Server) jobsOf(es []*sched.Entry) []*Job {
	out := make([]*Job, len(es))
	for i, e := range es {
		out[i] = s.job(e)
	}
	return out
}

// QueuedJobs returns jobs waiting to run, in submission order.
func (s *Server) QueuedJobs() []*Job { return s.jobsOf(s.core.Queue()) }

// RunningJobs returns jobs currently executing, in submission order.
func (s *Server) RunningJobs() []*Job { return s.jobsOf(s.core.Running()) }

// Stats is the O(1) scheduler census: what the controller's polling
// cycle needs, without rendering or rescanning anything.
type Stats struct {
	Running    int // jobs in state R
	Queued     int // jobs in state Q
	QueuedCPUs int // total CPUs requested by state-Q jobs
}

// QueueStats returns the maintained census counters.
func (s *Server) QueueStats() Stats {
	c := s.core.Census()
	return Stats{Running: c.Running, Queued: c.Queued, QueuedCPUs: c.QueuedSlots}
}

// FirstQueued returns the oldest job in state Q, or nil when the queue
// is empty — the detector's head-of-line candidate.
func (s *Server) FirstQueued() *Job {
	if e := s.core.First(); e != nil {
		return s.job(e)
	}
	return nil
}

// TotalCPUs sums np over nodes that are not down.
func (s *Server) TotalCPUs() int { return s.core.Census().SlotsUp }

// AvailableNodes counts nodes that are up (free or busy).
func (s *Server) AvailableNodes() int { return s.core.Census().NodesOnline }

// started binds the core's grants to CPU slots — the highest free
// virtual processors on each node — and starts the job.
func (s *Server) started(e *sched.Entry) {
	j := s.job(e)
	grants := s.core.Grants(e)
	j.ExecHost = make([]ExecSlot, 0, j.CPUs())
	for _, g := range grants {
		n := s.nodeList[g.Node]
		for c, left := n.NP-1, g.Slots; left > 0; c-- {
			if n.busy[c] == nil {
				n.busy[c] = j
				j.ExecHost = append(j.ExecHost, ExecSlot{Node: n.Name, CPU: c})
				left--
			}
		}
	}
	j.State = StateRunning
	j.StartTime = s.eng.Now()
	if q := s.queue(j.Queue); q != nil {
		q.running++
	}
	if s.OnJobStart != nil {
		s.OnJobStart(j)
	}
	if j.Exec != nil {
		hosts := make([]string, len(grants))
		for i, g := range grants {
			hosts[i] = s.nodeList[g.Node].Name
		}
		j.Exec(hosts)
	}
}

// finished completes a job that ran to its end, which is its walltime
// when the runtime overran it.
func (s *Server) finished(e *sched.Entry) {
	j := s.job(e)
	j.killedAtLimit = j.Walltime > 0 && j.Runtime > j.Walltime
	s.vacate(j)
	s.end(j)
}

// end moves a stopped, vacated job to state C and fires the end
// hooks.
func (s *Server) end(j *Job) {
	j.State = StateComplete
	j.EndTime = s.eng.Now()
	if s.OnJobEnd != nil {
		s.OnJobEnd(j)
	}
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}

// vacate frees a stopped job's CPU slots and its queue's running
// count; the core releases the slot counts themselves.
func (s *Server) vacate(j *Job) {
	for _, slot := range j.ExecHost {
		s.nodes[slot.Node].busy[slot.CPU] = nil
	}
	if q := s.queue(j.Queue); q != nil {
		q.running--
	}
}

// stamp renders a virtual time as the wall-clock string PBS prints.
func (s *Server) stamp(t time.Duration) string {
	return s.BaseDate.Add(t).Format(time.ANSIC)
}
