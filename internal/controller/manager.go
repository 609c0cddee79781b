package controller

import (
	"time"

	"repro/internal/comm"
	"repro/internal/detector"
	"repro/internal/osid"
	"repro/internal/simtime"
	"repro/internal/slab"
)

// Endpoint names on the communicator bus, after the programs in the
// paper's Figure 1.
const (
	LinuxEndpoint   = "LINHEAD"
	WindowsEndpoint = "WINHEAD"
)

// Gateway is what the daemons need from the cluster: a view of each
// side and a way to order switches. The cluster package implements it
// with the v1 (FAT control file) or v2 (PXE flag) mechanism behind
// OrderSwitch.
type Gateway interface {
	// SideInfo reports the current state of one side, less its
	// detector report.
	SideInfo(os osid.OS) SideState
	// Detect runs one side's queue-state detector (Figure 5). It is
	// kept apart from SideInfo because a stuck report renders the
	// stuck job's ID: only a daemon that reads the report runs it.
	Detect(os osid.OS) detector.Report
	// OrderSwitch asks the donor side's scheduler to run switch jobs
	// rebooting count nodes into target. It returns how many orders
	// were actually submitted.
	OrderSwitch(donor, target osid.OS, count int) int
}

// Config configures the daemon pair.
type Config struct {
	// Cycle is the Windows communicator's fixed reporting interval;
	// the paper used 5–10 minutes.
	Cycle time.Duration
	// Policy decides switches; nil means the paper's FCFS.
	Policy Policy
}

// DecisionRecord is one logged control-loop outcome.
type DecisionRecord struct {
	At        time.Duration
	Decision  Decision
	Submitted int
}

// Stats summarises controller activity.
type Stats struct {
	Cycles       int
	StatesSent   int
	Switches     int // decisions that acted
	NodesOrdered int // total switch jobs submitted
}

// Manager runs the two daemons on the simulation engine, exchanging
// messages over the bus exactly as Figure 11 describes:
//
//  1. the Windows daemon fetches its queue state on a fixed cycle;
//  2. it sends the state to the Linux daemon;
//  3. the Linux daemon fetches the PBS queue state and decides;
//  4. the target-OS flag is set (inside the gateway's OrderSwitch);
//  5. reboot orders go to whichever scheduler donates nodes.
type Manager struct {
	eng    *simtime.Engine
	bus    *comm.Bus
	gw     Gateway
	policy Policy
	cycle  time.Duration

	ticker *simtime.Ticker
	stats  Stats
	// history logs every cycle's outcome in chunks that never move, so
	// a long run does not copy the log as it grows.
	history slab.Slab[DecisionRecord]
}

// NewManager wires the daemons. Call Start to begin the cycle.
func NewManager(eng *simtime.Engine, bus *comm.Bus, gw Gateway, cfg Config) *Manager {
	if cfg.Cycle <= 0 {
		cfg.Cycle = 10 * time.Minute
	}
	if cfg.Policy == nil {
		cfg.Policy = FCFS{}
	}
	return &Manager{eng: eng, bus: bus, gw: gw, policy: cfg.Policy, cycle: cfg.Cycle}
}

// Policy returns the active policy.
func (m *Manager) Policy() Policy { return m.policy }

// Cycle returns the reporting interval.
func (m *Manager) Cycle() time.Duration { return m.cycle }

// Start registers both endpoints and begins the Windows reporting
// cycle. The cycle ticks forever until Stop: a drain ends on its own
// Busy predicate (grid.RunUntilDrained), never on an empty queue, so
// an idle controller polling an empty cluster keeps no run alive.
func (m *Manager) Start() {
	m.bus.Register(LinuxEndpoint, m.onLinuxMessage)
	m.bus.Register(WindowsEndpoint, m.onWindowsMessage)
	m.ticker = m.eng.Every(m.cycle, m.windowsCycle)
}

// Stop halts the reporting cycle and detaches the endpoints.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
	m.bus.Register(LinuxEndpoint, nil)
	m.bus.Register(WindowsEndpoint, nil)
}

// Stats returns a snapshot of controller counters.
func (m *Manager) Stats() Stats { return m.stats }

// History returns the decision log.
func (m *Manager) History() []DecisionRecord {
	out := make([]DecisionRecord, m.history.Len())
	for i := range out {
		out[i] = *m.history.At(i)
	}
	return out
}

// windowsCycle is step 1–2: the Windows communicator fetches its queue
// state and ships it to the Linux head.
func (m *Manager) windowsCycle() {
	m.stats.Cycles++
	m.stats.StatesSent++
	m.bus.Send(WindowsEndpoint, LinuxEndpoint, comm.Message{
		Kind:   comm.KindState,
		From:   osid.Windows,
		Report: m.gw.Detect(osid.Windows),
	})
}

// onLinuxMessage is steps 3–5: on a Windows state report, fetch the
// local PBS state, decide, and dispatch reboot orders.
func (m *Manager) onLinuxMessage(from string, msg comm.Message) {
	if msg.Kind != comm.KindState {
		return
	}
	windows := m.gw.SideInfo(osid.Windows)
	windows.Report = msg.Report // trust the wire, not local introspection
	linux := m.gw.SideInfo(osid.Linux)
	linux.Report = m.gw.Detect(osid.Linux)

	d := m.policy.Decide(m.eng.Now(), linux, windows)
	rec := m.history.Add()
	*rec = DecisionRecord{At: m.eng.Now(), Decision: d}
	if d.Act {
		m.stats.Switches++
		switch d.Donor {
		case osid.Linux:
			// Local: order PBS directly.
			rec.Submitted = m.gw.OrderSwitch(osid.Linux, d.Target, d.Nodes)
			m.stats.NodesOrdered += rec.Submitted
		case osid.Windows:
			// Remote: the reboot order crosses the wire to the Windows
			// daemon, which submits to its own scheduler.
			m.bus.Send(LinuxEndpoint, WindowsEndpoint, comm.Message{
				Kind:   comm.KindReboot,
				From:   osid.Linux,
				Target: d.Target,
				Count:  d.Nodes,
			})
		}
	}
}

// onWindowsMessage handles reboot orders arriving from the Linux head.
func (m *Manager) onWindowsMessage(from string, msg comm.Message) {
	if msg.Kind != comm.KindReboot {
		return
	}
	submitted := m.gw.OrderSwitch(osid.Windows, msg.Target, msg.Count)
	m.stats.NodesOrdered += submitted
	// Attach the submission count to the most recent acting record so
	// the history reflects what actually happened.
	for i := m.history.Len() - 1; i >= 0; i-- {
		if rec := m.history.At(i); rec.Decision.Act && rec.Decision.Donor == osid.Windows && rec.Submitted == 0 {
			rec.Submitted = submitted
			break
		}
	}
}

// RunOnce drives a single synchronous control cycle without the
// ticker, for tests and the qsim CLI's --step mode.
func (m *Manager) RunOnce() Decision {
	windows := m.gw.SideInfo(osid.Windows)
	windows.Report = m.gw.Detect(osid.Windows)
	linux := m.gw.SideInfo(osid.Linux)
	linux.Report = m.gw.Detect(osid.Linux)
	d := m.policy.Decide(m.eng.Now(), linux, windows)
	if d.Act {
		n := m.gw.OrderSwitch(d.Donor, d.Target, d.Nodes)
		m.stats.Switches++
		m.stats.NodesOrdered += n
		*m.history.Add() = DecisionRecord{At: m.eng.Now(), Decision: d, Submitted: n}
	}
	return d
}
