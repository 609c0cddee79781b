package pbs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Queue is a PBS execution queue. The paper's deployment used the
// single OSCAR "default" queue (Figure 4 submits with -q default);
// additional queues support the multi-group campus usage the paper's
// motivation section describes.
type Queue struct {
	Name string
	// enabled: accepting submissions (qmgr set queue enabled).
	enabled bool
	// started: eligible for scheduling (qmgr set queue started).
	started bool
	// MaxRunning bounds concurrently running jobs from this queue
	// (0 = unlimited).
	MaxRunning int
	// running counts this queue's jobs in state R, maintained by the
	// server's start/stop ledger so the cap check never scans job
	// history.
	running int
}

// Enabled reports whether the queue accepts submissions.
func (q *Queue) Enabled() bool { return q.enabled }

// Started reports whether the queue's jobs are scheduled.
func (q *Queue) Started() bool { return q.started }

// CreateQueue adds an execution queue, enabled and started.
func (s *Server) CreateQueue(name string) (*Queue, error) {
	if name == "" {
		return nil, fmt.Errorf("pbs: queue needs a name")
	}
	if _, ok := s.queues[name]; ok {
		return nil, fmt.Errorf("pbs: queue %s already exists", name)
	}
	q := &Queue{Name: name, enabled: true, started: true}
	s.queues[name] = q
	return q, nil
}

// GetQueue returns a queue by name.
func (s *Server) GetQueue(name string) (*Queue, error) {
	q, ok := s.queues[name]
	if !ok {
		return nil, fmt.Errorf("pbs: unknown queue %s", name)
	}
	return q, nil
}

// Queues lists queues sorted by name.
func (s *Server) Queues() []*Queue {
	out := make([]*Queue, 0, len(s.queues))
	for _, q := range s.queues {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetQueueEnabled toggles submission acceptance.
func (s *Server) SetQueueEnabled(name string, enabled bool) error {
	q, err := s.GetQueue(name)
	if err != nil {
		return err
	}
	q.enabled = enabled
	return nil
}

// SetQueueStarted toggles scheduling eligibility; stopping a queue
// holds its jobs without killing anything.
func (s *Server) SetQueueStarted(name string, started bool) error {
	q, err := s.GetQueue(name)
	if err != nil {
		return err
	}
	q.started = started
	if started {
		s.core.Kick()
	}
	return nil
}

// schedulable reports whether a queued job may be considered in this
// pass: its queue must be started and under its running cap.
func (s *Server) schedulable(j *Job) bool {
	q := s.queue(j.Queue)
	return q != nil && q.started && (q.MaxRunning <= 0 || q.running < q.MaxRunning)
}

// queue returns the named queue, nil when there is none. The skip
// check asks for every queued job on every scheduling pass, and jobs
// mostly share a queue, so the last name found is kept: queues are
// never removed, so it stays valid. The key is kept apart from the
// exported Queue.Name, which callers may rewrite.
func (s *Server) queue(name string) *Queue {
	if s.lastQueue == nil || name != s.lastName {
		q, ok := s.queues[name]
		if !ok {
			return nil
		}
		s.lastName, s.lastQueue = name, q
	}
	return s.lastQueue
}

// QstatSummary renders the classic tabular `qstat` output:
//
//	Job ID                 Name            User       Time Use S Queue
//	---------------------- --------------- ---------- -------- - -----
//	1185.eridani.qgg...    release_1_node  sliang     00:00:10 R default
func (s *Server) QstatSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-16s %-12s %-8s %s %s\n", "Job ID", "Name", "User", "Time Use", "S", "Queue")
	fmt.Fprintf(&b, "%s %s %s %s - %s\n",
		strings.Repeat("-", 28), strings.Repeat("-", 16), strings.Repeat("-", 12), strings.Repeat("-", 8), strings.Repeat("-", 7))
	for _, j := range s.Jobs() {
		if j.State == StateComplete {
			continue
		}
		user, _, _ := strings.Cut(j.Owner, "@")
		use := time.Duration(0)
		if j.State == StateRunning {
			use = s.eng.Now() - j.StartTime
		}
		fmt.Fprintf(&b, "%-28s %-16s %-12s %-8s %s %s\n",
			truncate(j.ID, 28), truncate(j.Name, 16), truncate(user, 12),
			fmtHMS(use), j.State, j.Queue)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
