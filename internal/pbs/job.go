// Package pbs simulates the Torque/PBS batch system that OSCAR
// installs on the Linux head node. The simulation covers what
// dualboot-oscar interacts with: qsub with #PBS directives (Figure 4),
// a strict FCFS scheduler whose head-of-line blocking produces the
// "stuck" queue states the detector looks for, node state tracking,
// and the `qstat -f` / `pbsnodes` text output (Figures 7 and 8) that
// the detector scrapes because "PBS does not provide APIs".
package pbs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/slab"
)

// JobState is the single-letter PBS job state.
type JobState byte

const (
	StateQueued   JobState = 'Q'
	StateRunning  JobState = 'R'
	StateExiting  JobState = 'E'
	StateComplete JobState = 'C'
	StateHeld     JobState = 'H'
)

// String returns the one-letter state code.
func (s JobState) String() string { return string(rune(s)) }

// ExecSlot is one virtual processor assignment: a node name and a CPU
// index on that node.
type ExecSlot struct {
	Node string
	CPU  int32
}

// execSlot is how the server stores an ExecSlot: the node's index in
// its table instead of the name.
type execSlot struct {
	node, cpu int32
}

// Job is a PBS batch job. The server keeps its jobs by value in one
// table, and no field is built per job: the ID and the exec_host text
// are rendered by the server when asked for. What the scheduling
// core's entry holds (sequence number, request, runtime, walltime,
// rerun flag) is read from it through methods, not stored twice. A Job
// holds no pointer: its strings are indices into the server's interned
// strings (Server.Str renders them), so the collector never scans the
// job table.
type Job struct {
	Name       uint32
	Owner      uint32
	Queue      uint32
	OutputPath uint32
	Priority   int

	QTime     time.Duration // submission (virtual time)
	StartTime time.Duration
	EndTime   time.Duration

	// exec locates the job's CPU slots in the server's slot arena: set
	// at each start, kept once the job ends, emptied by a requeue.
	exec slab.Ref

	State  JobState
	JoinOE bool

	killedAtLimit bool
	failed        bool

	// e is the job's entry in the server's scheduling core.
	e sched.Entry
}

// SeqNo returns the job's sequence number, counted from 1 per server.
func (j *Job) SeqNo() int { return j.e.Seq }

// Nodes returns the nodes requested (nodes=Nodes:ppn=PPN).
func (j *Job) Nodes() int { return j.e.Count }

// PPN returns the virtual processors requested per node.
func (j *Job) PPN() int { return j.e.PPN }

// Runtime returns how long the job actually runs once started.
func (j *Job) Runtime() time.Duration { return j.e.Runtime }

// Walltime returns the requested limit (0 = unlimited). Jobs whose
// Runtime exceeds Walltime are killed at the limit.
func (j *Job) Walltime() time.Duration { return j.e.Walltime }

// Rerunnable reports whether node loss requeues the job (qsub -r y).
func (j *Job) Rerunnable() bool { return j.e.Rerun }

// CPUs returns the total virtual processors the job needs.
func (j *Job) CPUs() int { return j.Nodes() * j.PPN() }

// KilledAtWalltime reports whether the job was killed: it hit its
// walltime limit, or it was deleted with Qdel.
func (j *Job) KilledAtWalltime() bool { return j.killedAtLimit }

// Failed reports whether the job died without completing its work —
// a non-rerunnable job interrupted by node loss. Walltime kills are
// reported separately through KilledAtWalltime.
func (j *Job) Failed() bool { return j.failed }

// Str renders one of a job's interned strings (Name, Owner, Queue,
// OutputPath).
func (s *Server) Str(i uint32) string { return s.strs.At(i) }

// ID renders the job's ID, "<SeqNo>.<server>" ("1185.eridani.qgg.hud.ac.uk").
func (s *Server) ID(j *Job) string { return s.JobID(j.SeqNo()) }

// ExecHost lists the job's virtual processors, highest CPU first on
// each node; empty while it waits. A completed job keeps the slots of
// its last run.
func (s *Server) ExecHost(j *Job) []ExecSlot {
	slots := s.slots.Run(j.exec)
	out := make([]ExecSlot, len(slots))
	for i, sl := range slots {
		out[i] = ExecSlot{Node: s.nodeList[sl.node].Name, CPU: sl.cpu}
	}
	return out
}

// ExecHostString renders the exec_host attribute the way PBS does:
// "node16/3+node16/2+node16/1+node16/0".
func (s *Server) ExecHostString(j *Job) string {
	var b strings.Builder
	for i, sl := range s.slots.Run(j.exec) {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(fqdn(s.nodeList[sl.node].Name, s.domain))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(int(sl.cpu)))
	}
	return b.String()
}

// SubmitRequest is the programmatic form of qsub.
type SubmitRequest struct {
	Name     string
	Owner    string
	Queue    string
	Nodes    int
	PPN      int
	Runtime  time.Duration
	Walltime time.Duration
	Priority int
	JoinOE   bool
	Output   string
	Rerun    bool
	// Exec, when non-nil, runs at each start with the booked hosts.
	// dualboot-oscar packs the OS switch action into such a job
	// (Figure 4): change the boot default, then reboot. OnEnd, when
	// non-nil, runs when the job finishes or is killed. The server
	// keeps them in a side table, since only the OS-switch jobs have
	// them.
	Exec  func(hosts []string)
	OnEnd func(j *Job)
}

// normalise applies PBS defaults.
func (r *SubmitRequest) normalise() error {
	if r.Nodes <= 0 {
		r.Nodes = 1
	}
	if r.PPN <= 0 {
		r.PPN = 1
	}
	if r.Runtime < 0 {
		return fmt.Errorf("pbs: negative runtime")
	}
	if r.Name == "" {
		r.Name = "STDIN"
	}
	if r.Owner == "" {
		r.Owner = "nobody"
	}
	return nil
}

// ScriptJob is the result of parsing a PBS job script.
type ScriptJob struct {
	Request  SubmitRequest
	Commands []string // non-directive, non-comment lines
}

// ParseScript parses a job script with #PBS directives, accepting the
// paper's Figure 4 verbatim. Supported directives: -l nodes=N:ppn=M,
// -l walltime=HH:MM:SS, -N name, -q queue, -j oe, -o path, -r y|n,
// -p priority.
func ParseScript(script string) (*ScriptJob, error) {
	out := &ScriptJob{}
	req := &out.Request
	for lineNo, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#PBS") {
			directive := strings.TrimSpace(strings.TrimPrefix(line, "#PBS"))
			if directive == "" {
				continue
			}
			if err := applyDirective(req, directive); err != nil {
				return nil, fmt.Errorf("pbs: script line %d: %w", lineNo+1, err)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // plain comment, including the shebang-adjacent banner
		}
		out.Commands = append(out.Commands, line)
	}
	if err := req.normalise(); err != nil {
		return nil, err
	}
	return out, nil
}

func applyDirective(req *SubmitRequest, directive string) error {
	flag, rest, _ := strings.Cut(directive, " ")
	rest = strings.TrimSpace(rest)
	switch flag {
	case "-l":
		return applyResourceList(req, rest)
	case "-N":
		if rest == "" {
			return fmt.Errorf("-N needs a name")
		}
		req.Name = rest
	case "-q":
		req.Queue = rest
	case "-j":
		req.JoinOE = rest == "oe"
	case "-o":
		req.Output = rest
	case "-r":
		req.Rerun = rest == "y"
	case "-p":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad priority %q", rest)
		}
		req.Priority = n
	default:
		// Unknown directives are ignored, as qsub does for unsupported
		// attribute flags in simple deployments.
	}
	return nil
}

// applyResourceList parses "-l" values: "nodes=1:ppn=4",
// "walltime=01:00:00", or comma-separated combinations.
func applyResourceList(req *SubmitRequest, spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("bad resource %q", item)
		}
		switch key {
		case "nodes":
			nodes, ppn, err := parseNodesSpec(val)
			if err != nil {
				return err
			}
			req.Nodes, req.PPN = nodes, ppn
		case "walltime":
			d, err := parseWalltime(val)
			if err != nil {
				return err
			}
			req.Walltime = d
		default:
			// other resources (mem, etc.) not modelled
		}
	}
	return nil
}

// parseNodesSpec parses "1:ppn=4" (also bare "2" meaning ppn=1).
func parseNodesSpec(val string) (nodes, ppn int, err error) {
	ppn = 1
	parts := strings.Split(val, ":")
	nodes, err = strconv.Atoi(parts[0])
	if err != nil || nodes <= 0 {
		return 0, 0, fmt.Errorf("bad nodes spec %q", val)
	}
	for _, p := range parts[1:] {
		if after, ok := strings.CutPrefix(p, "ppn="); ok {
			ppn, err = strconv.Atoi(after)
			if err != nil || ppn <= 0 {
				return 0, 0, fmt.Errorf("bad ppn in %q", val)
			}
		}
		// node properties (":all" etc.) accepted and ignored
	}
	return nodes, ppn, nil
}

// parseWalltime parses "HH:MM:SS" or "MM:SS" or plain seconds.
func parseWalltime(val string) (time.Duration, error) {
	parts := strings.Split(val, ":")
	var h, m, s int
	var err error
	switch len(parts) {
	case 1:
		s, err = strconv.Atoi(parts[0])
	case 2:
		m, err = strconv.Atoi(parts[0])
		if err == nil {
			s, err = strconv.Atoi(parts[1])
		}
	case 3:
		h, err = strconv.Atoi(parts[0])
		if err == nil {
			m, err = strconv.Atoi(parts[1])
		}
		if err == nil {
			s, err = strconv.Atoi(parts[2])
		}
	default:
		return 0, fmt.Errorf("bad walltime %q", val)
	}
	if err != nil || h < 0 || m < 0 || s < 0 {
		return 0, fmt.Errorf("bad walltime %q", val)
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(s)*time.Second, nil
}

func fqdn(name, domain string) string {
	if domain == "" || strings.Contains(name, ".") {
		return name
	}
	return name + "." + domain
}
