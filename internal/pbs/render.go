package pbs

import (
	"fmt"
	"strings"
)

// This file renders the command output the paper's detector scrapes.
// The formats follow Figures 7 (pbsnodes) and 8 (qstat -f): a name
// line followed by indented "key = value" attribute lines, records
// separated by blank lines.

// QstatF renders `qstat -f` for every job that has not completed.
// Completed jobs age out of qstat quickly in real Torque; the detector
// only cares about Q/R/E states.
func (s *Server) QstatF() string {
	var b strings.Builder
	for i := range s.jobs.Len() {
		j := s.jobs.At(i)
		if j.State == StateComplete {
			continue
		}
		s.renderJob(&b, j)
		b.WriteByte('\n')
	}
	return b.String()
}

// QstatFJob renders one job record regardless of state.
func (s *Server) QstatFJob(id string) (string, error) {
	j, err := s.Job(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	s.renderJob(&b, j)
	return b.String(), nil
}

func (s *Server) renderJob(b *strings.Builder, j *Job) {
	fmt.Fprintf(b, "Job Id: %s\n", s.ID(j))
	attr := func(k, v string) { fmt.Fprintf(b, "    %s = %s\n", k, v) }
	attr("Job_Name", s.Str(j.Name))
	attr("Job_Owner", s.Str(j.Owner))
	attr("job_state", j.State.String())
	attr("queue", s.Str(j.Queue))
	attr("server", s.domain)
	if j.JoinOE {
		attr("Join_Path", "oe")
	}
	if j.OutputPath != 0 {
		attr("Output_Path", s.Str(j.OutputPath))
	}
	if j.exec.Len() > 0 {
		attr("exec_host", s.ExecHostString(j))
	}
	attr("Priority", fmt.Sprintf("%d", j.Priority))
	attr("qtime", s.stamp(j.QTime))
	if j.State == StateRunning || j.State == StateExiting {
		attr("start_time", s.stamp(j.StartTime))
	}
	attr("Resource_List.nodes", fmt.Sprintf("%d:ppn=%d", j.Nodes(), j.PPN()))
	if j.Walltime() > 0 {
		attr("Resource_List.walltime", fmtHMS(j.Walltime()))
	}
	rerun := "n"
	if j.Rerunnable() {
		rerun = "y"
	}
	attr("Rerunable", rerun)
}

// PBSNodes renders `pbsnodes` output for all nodes.
func (s *Server) PBSNodes() string {
	var b strings.Builder
	for _, n := range s.Nodes() {
		s.renderNode(&b, n)
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *Server) renderNode(b *strings.Builder, n *Node) {
	fmt.Fprintf(b, "%s\n", fqdn(n.Name, s.domain))
	attr := func(k, v string) { fmt.Fprintf(b, "     %s = %s\n", k, v) }
	attr("state", string(n.State()))
	attr("np", fmt.Sprintf("%d", n.NP))
	attr("properties", strings.Join(n.Properties, ","))
	attr("ntype", "cluster")
	if jobs := n.Jobs(); len(jobs) > 0 {
		attr("jobs", strings.Join(jobs, ", "))
	}
	// The status line condenses what pbs_mom reports; the fields the
	// paper shows in Figure 7 are kept, values simulated.
	status := fmt.Sprintf("opsys=linux,uname=Linux %s 2.6.18-164.el5 #1 SMP x86_64,ncpus=%d,loadave=%.2f,state=%s",
		fqdn(n.Name, s.domain), n.NP, float64(n.UsedCPUs()), n.State())
	attr("status", status)
}

func fmtHMS(d interface{ Seconds() float64 }) string {
	total := int(d.Seconds())
	return fmt.Sprintf("%02d:%02d:%02d", total/3600, (total%3600)/60, total%60)
}
