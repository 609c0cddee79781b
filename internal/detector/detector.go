// Package detector implements the queue-state fetching programs of
// dualboot-oscar: one per head node, each answering "is this scheduler
// stuck, and how many CPUs does the job at the head of the queue
// need?". A scheduler is *stuck* — the paper's definition — "when the
// scheduler has no job running and several jobs are queuing".
//
// The Linux detector scrapes `qstat -f` and `pbsnodes` text (Torque of
// the era offered no API); the Windows detector queries the HPC Pack
// SDK. Both emit the same wire format (Figure 5) so the communicators
// can exchange them symmetrically:
//
//	position 0     queue state: '1' stuck, '0' otherwise
//	positions 1–4  CPUs needed by the first queued job, zero-padded
//	positions 5–67 stuck job ID, "none" when not stuck
//	positions 68+  undefined
package detector

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pbs"
	"repro/internal/winhpc"
)

// maxIDLen is the job-ID field width: positions 5 through 67.
const maxIDLen = 63

// maxCPUs is the largest demand the 4-digit field can carry.
const maxCPUs = 9999

// NoneID is the job-ID placeholder when the queue is not stuck.
const NoneID = "none"

// Report is the decoded detector output.
type Report struct {
	Stuck      bool
	NeededCPUs int
	StuckJobID string
}

// Encode renders the Figure-5 wire string. Values outside the field
// widths are clamped (CPUs) or truncated (job ID) the way a fixed-
// format protocol forces.
func (r Report) Encode() string {
	var buf [5 + maxIDLen]byte
	return string(r.AppendEncode(buf[:0]))
}

// AppendEncode appends the Figure-5 wire string of r to dst, with
// Encode's clamping and truncation, and returns the extended buffer.
func (r Report) AppendEncode(dst []byte) []byte {
	state := byte('0')
	if r.Stuck {
		state = '1'
	}
	cpus := min(max(r.NeededCPUs, 0), maxCPUs)
	id := r.StuckJobID
	if id == "" {
		id = NoneID
	}
	if len(id) > maxIDLen {
		id = id[:maxIDLen]
	}
	return append(append(dst, state,
		byte('0'+cpus/1000), byte('0'+cpus/100%10), byte('0'+cpus/10%10), byte('0'+cpus%10)),
		id...)
}

// Parse decodes a wire string produced by Encode (or by the original
// Perl detectors, whose outputs in Figure 6 parse verbatim).
func Parse(s string) (Report, error) { return ParseBytes([]byte(s)) }

// ParseBytes decodes a wire string like Parse. The report shares no
// memory with b: the "none" placeholder becomes NoneID and a stuck
// job's ID is copied out, so the caller may reuse b at once.
func ParseBytes(b []byte) (Report, error) {
	b = bytes.TrimSpace(b)
	if len(b) < 6 {
		return Report{}, fmt.Errorf("detector: report %q too short", string(b))
	}
	var r Report
	switch b[0] {
	case '1':
		r.Stuck = true
	case '0':
		r.Stuck = false
	default:
		return Report{}, fmt.Errorf("detector: bad state byte %q", b[0])
	}
	cpus, err := strconv.Atoi(string(b[1:5])) // converted on the stack: Atoi keeps no reference
	if err != nil || cpus < 0 {
		return Report{}, fmt.Errorf("detector: bad CPU field %q", string(b[1:5]))
	}
	r.NeededCPUs = cpus
	id := b[5:]
	if len(id) > maxIDLen {
		id = id[:maxIDLen]
	}
	if string(id) == NoneID {
		r.StuckJobID = NoneID
	} else {
		r.StuckJobID = string(id)
	}
	return r, nil
}

// Detector produces queue-state reports for one scheduler.
type Detector interface {
	// Detect returns the current report.
	Detect() (Report, error)
	// Describe returns the human-oriented debug output in the shape of
	// Figure 6 (wire line, state description, R/nR counts).
	Describe() (string, error)
}

// PBSDetector scrapes a Torque server's command output. It reads
// through function values so it can be pointed at a live simulated
// server, canned text from the paper, or (in the original deployment)
// actual pbs command invocations.
//
// When wired to a live simulated server, Detect answers from the
// server's maintained queue census instead of rendering and re-parsing
// the full `qstat -f` text every poll — the render/scrape cycle is
// O(total jobs ever submitted) and dominated whole-run profiles at
// metro scale. Describe keeps the text path: its output *is* the
// scrape (Figure 6), and canned-text detectors have no server to ask.
type PBSDetector struct {
	QstatF   func() string
	PBSNodes func() string

	// Server, when non-nil, enables the structured fast path for
	// Detect. The text path remains authoritative for Describe and for
	// detectors built from canned command output.
	Server *pbs.Server
}

// NewPBSDetector wires a detector to a simulated PBS server.
func NewPBSDetector(s *pbs.Server) *PBSDetector {
	return &PBSDetector{QstatF: s.QstatF, PBSNodes: s.PBSNodes, Server: s}
}

// scan parses the command output into running/queued job lists.
func (d *PBSDetector) scan() (running, queued []pbs.JobStatus, err error) {
	jobs, err := pbs.ParseQstatF(d.QstatF())
	if err != nil {
		return nil, nil, fmt.Errorf("detector: %w", err)
	}
	for _, j := range jobs {
		switch j.State {
		case pbs.StateRunning, pbs.StateExiting:
			running = append(running, j)
		case pbs.StateQueued:
			queued = append(queued, j)
		}
	}
	return running, queued, nil
}

// Detect implements Detector.
func (d *PBSDetector) Detect() (Report, error) {
	if d.Server != nil {
		// Structured fast path: the maintained census carries the same
		// running/queued counts and queue head the text scrape yields
		// (the simulated server never renders transient E states).
		stats := d.Server.QueueStats()
		if !isStuck(stats.Running, stats.Queued) {
			return notStuck, nil
		}
		j := d.Server.FirstQueued()
		return Report{Stuck: true, NeededCPUs: j.Nodes() * j.PPN(), StuckJobID: d.Server.ID(j)}, nil
	}
	running, queued, err := d.scan()
	if err != nil {
		return Report{}, err
	}
	return scanReport(running, queued), nil
}

// scanReport applies the stuck rule to scraped job lists.
func scanReport(running, queued []pbs.JobStatus) Report {
	if !isStuck(len(running), len(queued)) {
		return notStuck
	}
	return Report{Stuck: true, NeededCPUs: queued[0].CPUs(), StuckJobID: queued[0].ID}
}

// Describe implements Detector, reproducing the three output shapes of
// Figure 6.
func (d *PBSDetector) Describe() (string, error) {
	running, queued, err := d.scan()
	if err != nil {
		return "", err
	}
	rep := scanReport(running, queued)
	var b strings.Builder
	b.WriteString(rep.Encode())
	b.WriteByte('\n')
	b.WriteString(stateDescription(len(running), len(queued)))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "R=%d nR=%d\n", len(running), len(queued))
	for _, j := range running {
		fmt.Fprintf(&b, "%s\n", j.ID)
		fmt.Fprintf(&b, "    Job_Name=%s\n", j.Name)
		fmt.Fprintf(&b, "    Job_Owner=%s\n", j.Owner)
		fmt.Fprintf(&b, "    state=%s\n", j.State)
	}
	return b.String(), nil
}

// WinHPCDetector queries the Windows HPC scheduler through its SDK
// snapshot, following "the same output format" as the PBS detector.
type WinHPCDetector struct {
	Sched *winhpc.Scheduler
}

// NewWinHPCDetector wires a detector to a simulated HPC scheduler.
func NewWinHPCDetector(s *winhpc.Scheduler) *WinHPCDetector {
	return &WinHPCDetector{Sched: s}
}

// Detect implements Detector.
func (d *WinHPCDetector) Detect() (Report, error) {
	snap := d.Sched.Snapshot()
	if !isStuck(snap.Running, snap.Queued) {
		return notStuck, nil
	}
	return Report{Stuck: true, NeededCPUs: snap.NeededCores,
		StuckJobID: strconv.Itoa(snap.FirstQueued) + "." + d.Sched.ClusterName()}, nil
}

// Describe implements Detector.
func (d *WinHPCDetector) Describe() (string, error) {
	snap := d.Sched.Snapshot()
	rep, _ := d.Detect()
	var b strings.Builder
	b.WriteString(rep.Encode())
	b.WriteByte('\n')
	b.WriteString(stateDescription(snap.Running, snap.Queued))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "R=%d nR=%d\n", snap.Running, snap.Queued)
	for _, j := range d.Sched.RunningJobs() {
		fmt.Fprintf(&b, "%d.%s\n", j.ID(), d.Sched.ClusterName())
		fmt.Fprintf(&b, "    Job_Name=%s\n", d.Sched.Str(j.Name))
		fmt.Fprintf(&b, "    Job_Owner=%s\n", d.Sched.Str(j.Owner))
		fmt.Fprintf(&b, "    state=%s\n", j.State)
	}
	return b.String(), nil
}

// isStuck is the stuck rule: no job running, at least one queued.
func isStuck(running, queued int) bool { return running == 0 && queued > 0 }

// notStuck is the report of a scheduler the stuck rule does not hold
// for.
var notStuck = Report{StuckJobID: NoneID}

// stateDescription matches Figure 6's middle lines.
func stateDescription(running, queued int) string {
	switch {
	case running == 0 && queued > 0:
		return "Queue stuck"
	case running > 0 && queued == 0:
		return "Job running, no queuing."
	case running > 0 && queued > 0:
		return "Job running, jobs queuing."
	default:
		return "Other state"
	}
}
