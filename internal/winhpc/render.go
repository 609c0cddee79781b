package winhpc

import (
	"fmt"
	"strings"
	"time"
)

// Text views mirroring the HPC Pack management shell: `job list` and
// `node list`. The Windows-side detector uses the SDK (Snapshot), but
// administrators read these tables; the qsim CLI and tests do too.

// JobList renders active jobs the way `job list` does.
func (s *Scheduler) JobList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-16s %-14s %-10s %-9s %s\n", "Id", "Name", "Owner", "State", "Priority", "Resources")
	for i := range s.jobs.Len() {
		j := s.jobs.At(i)
		if j.State == JobFinished || j.State == JobCanceled || j.State == JobFailed {
			continue
		}
		res := fmt.Sprintf("%d %s", j.Count(), strings.ToLower(j.Unit.String()))
		if j.Count() != 1 {
			res += "s"
		}
		fmt.Fprintf(&b, "%-6d %-16s %-14s %-10s %-9s %s\n",
			j.ID(), clip(s.Str(j.Name), 16), clip(s.Str(j.Owner), 14), j.State, j.Priority(), res)
	}
	return b.String()
}

// NodeList renders the node table the way `node list` does.
func (s *Scheduler) NodeList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-6s %-6s %s\n", "NodeName", "State", "Cores", "InUse", "Template")
	for _, n := range s.Nodes() {
		fmt.Fprintf(&b, "%-12s %-12s %-6d %-6d %s\n",
			clip(n.Name, 12), n.State(), n.Cores, n.UsedCores(), n.Template)
	}
	return b.String()
}

// FinishedJobReport summarises terminal jobs for accounting.
func (s *Scheduler) FinishedJobReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-16s %-10s %-12s %s\n", "Id", "Name", "State", "Elapsed", "Allocated")
	for i := range s.jobs.Len() {
		j := s.jobs.At(i)
		switch j.State {
		case JobFinished, JobFailed, JobCanceled:
			// Jobs that never started (cancelled in queue) keep a zero
			// elapsed time; an allocation proves the job ran.
			elapsed := time.Duration(0)
			if j.alloc.Len() > 0 {
				elapsed = j.EndTime - j.StartTime
			}
			fmt.Fprintf(&b, "%-6d %-16s %-10s %-12s %s\n",
				j.ID(), clip(s.Str(j.Name), 16), j.State, elapsed.Round(time.Second), strings.Join(s.AllocatedNodes(j), ","))
		}
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
