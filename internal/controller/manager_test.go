package controller

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/detector"
	"repro/internal/osid"
	"repro/internal/simtime"
)

// fakeGateway scripts SideInfo responses, reports included, and
// records switch orders.
type fakeGateway struct {
	linux, windows SideState
	orders         []orderRec
	acceptAll      bool
}

type orderRec struct {
	donor, target osid.OS
	count         int
}

func (g *fakeGateway) SideInfo(os osid.OS) SideState {
	if os == osid.Linux {
		return g.linux
	}
	return g.windows
}

func (g *fakeGateway) Detect(os osid.OS) detector.Report { return g.SideInfo(os).Report }

func (g *fakeGateway) OrderSwitch(donor, target osid.OS, count int) int {
	g.orders = append(g.orders, orderRec{donor, target, count})
	if g.acceptAll {
		return count
	}
	return count - 1 // model one rejection for partial-acceptance tests
}

func newManager(t *testing.T, gw Gateway, cfg Config) (*simtime.Engine, *Manager, *comm.Bus) {
	t.Helper()
	eng := simtime.NewEngine()
	bus := comm.NewBus(eng, time.Millisecond)
	m := NewManager(eng, bus, gw, cfg)
	return eng, m, bus
}

func TestManagerDefaults(t *testing.T) {
	gw := &fakeGateway{acceptAll: true}
	_, m, _ := newManager(t, gw, Config{})
	if m.Cycle() != 10*time.Minute {
		t.Fatalf("cycle = %v", m.Cycle())
	}
	if m.Policy().Name() != "fcfs" {
		t.Fatalf("policy = %v", m.Policy().Name())
	}
}

func TestCycleSendsWindowsState(t *testing.T) {
	gw := &fakeGateway{
		linux:     side(osid.Linux, 8, 8),
		windows:   side(osid.Windows, 8, 8),
		acceptAll: true,
	}
	eng, m, bus := newManager(t, gw, Config{Cycle: 5 * time.Minute})
	m.Start()
	eng.RunUntil(21 * time.Minute)
	m.Stop()
	st := m.Stats()
	if st.Cycles != 4 {
		t.Fatalf("cycles = %d, want 4 in 21 minutes at 5m", st.Cycles)
	}
	if bus.Stats().ByKind[comm.KindState] != 4 {
		t.Fatalf("state messages = %d", bus.Stats().ByKind[comm.KindState])
	}
	if st.Switches != 0 {
		t.Fatalf("switches = %d with idle cluster", st.Switches)
	}
}

func TestWindowsStuckTriggersRemoteOrderOverBus(t *testing.T) {
	gw := &fakeGateway{
		linux:     side(osid.Linux, 8, 6),
		windows:   stuck(side(osid.Windows, 8, 0), 8, "3.WINHEAD"),
		acceptAll: true,
	}
	eng, m, bus := newManager(t, gw, Config{Cycle: 5 * time.Minute})
	m.Start()
	eng.RunUntil(6 * time.Minute)
	m.Stop()

	if len(gw.orders) != 1 {
		t.Fatalf("orders = %+v", gw.orders)
	}
	o := gw.orders[0]
	if o.donor != osid.Linux || o.target != osid.Windows || o.count != 2 {
		t.Fatalf("order = %+v", o)
	}
	// Donor is Linux, so the order is local: no REBOOT message crosses.
	if bus.Stats().ByKind[comm.KindReboot] != 0 {
		t.Fatalf("unexpected REBOOT traffic: %+v", bus.Stats().ByKind)
	}
	if m.Stats().NodesOrdered != 2 {
		t.Fatalf("nodes ordered = %d", m.Stats().NodesOrdered)
	}
}

func TestLinuxStuckSendsRebootOrderToWindows(t *testing.T) {
	gw := &fakeGateway{
		linux:     stuck(side(osid.Linux, 8, 0), 4, "7.eridani"),
		windows:   side(osid.Windows, 8, 5),
		acceptAll: true,
	}
	eng, m, bus := newManager(t, gw, Config{Cycle: 5 * time.Minute})
	m.Start()
	eng.RunUntil(6 * time.Minute)
	m.Stop()

	if len(gw.orders) != 1 {
		t.Fatalf("orders = %+v", gw.orders)
	}
	o := gw.orders[0]
	if o.donor != osid.Windows || o.target != osid.Linux || o.count != 1 {
		t.Fatalf("order = %+v", o)
	}
	// The order crossed the wire as a REBOOT message.
	if bus.Stats().ByKind[comm.KindReboot] != 1 {
		t.Fatalf("reboot messages = %d", bus.Stats().ByKind[comm.KindReboot])
	}
	hist := m.History()
	if len(hist) != 1 || !hist[0].Decision.Act || hist[0].Submitted != 1 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestHistoryRecordsNoOpCycles(t *testing.T) {
	gw := &fakeGateway{
		linux:     side(osid.Linux, 8, 8),
		windows:   side(osid.Windows, 8, 8),
		acceptAll: true,
	}
	eng, m, _ := newManager(t, gw, Config{Cycle: time.Minute})
	m.Start()
	// One extra second so the third cycle's STATE message clears the
	// 1 ms bus latency before the deadline.
	eng.RunUntil(3*time.Minute + time.Second)
	m.Stop()
	hist := m.History()
	if len(hist) != 3 {
		t.Fatalf("history = %d records", len(hist))
	}
	for _, h := range hist {
		if h.Decision.Act {
			t.Fatalf("unexpected action: %+v", h)
		}
	}
}

func TestStopHaltsCycle(t *testing.T) {
	gw := &fakeGateway{linux: side(osid.Linux, 8, 8), windows: side(osid.Windows, 8, 8), acceptAll: true}
	eng, m, _ := newManager(t, gw, Config{Cycle: time.Minute})
	m.Start()
	eng.RunUntil(2 * time.Minute)
	m.Stop()
	eng.RunUntil(10 * time.Minute)
	if m.Stats().Cycles != 2 {
		t.Fatalf("cycles after Stop = %d", m.Stats().Cycles)
	}
}

func TestRunOnceSynchronous(t *testing.T) {
	gw := &fakeGateway{
		linux:     stuck(side(osid.Linux, 8, 0), 8, "x"),
		windows:   side(osid.Windows, 8, 4),
		acceptAll: true,
	}
	_, m, _ := newManager(t, gw, Config{})
	d := m.RunOnce()
	if !d.Act || d.Nodes != 2 {
		t.Fatalf("d = %+v", d)
	}
	if len(gw.orders) != 1 {
		t.Fatalf("orders = %+v", gw.orders)
	}
	if m.Stats().NodesOrdered != 2 || m.Stats().Switches != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestPartialSubmissionRecorded(t *testing.T) {
	gw := &fakeGateway{
		linux:     stuck(side(osid.Linux, 8, 0), 8, "x"),
		windows:   side(osid.Windows, 8, 4),
		acceptAll: false, // gateway accepts count-1
	}
	_, m, _ := newManager(t, gw, Config{})
	m.RunOnce()
	hist := m.History()
	if len(hist) != 1 || hist[0].Submitted != 1 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestManagerWithCustomPolicy(t *testing.T) {
	gw := &fakeGateway{
		linux:     stuck(side(osid.Linux, 8, 0), 4, "x"),
		windows:   side(osid.Windows, 8, 8),
		acceptAll: true,
	}
	eng, m, _ := newManager(t, gw, Config{Cycle: time.Minute, Policy: Threshold{MinQueuedCPUs: 99}})
	m.Start()
	eng.RunUntil(5 * time.Minute)
	m.Stop()
	if m.Stats().Switches != 0 {
		t.Fatalf("threshold policy ignored: %+v", m.Stats())
	}
}

// oscGateway models demand that swings between the sides every period:
// the loaded side carries a 32-CPU backlog on fully busy nodes while
// the other side idles. Switch orders are accepted but never change
// the node split, so every cycle re-presents the same temptation — the
// sharpest possible flap bait.
type oscGateway struct {
	now    func() time.Duration
	period time.Duration
	orders []orderRec
}

func (g *oscGateway) SideInfo(os osid.OS) SideState {
	loaded := osid.Linux
	if int(g.now()/g.period)%2 == 1 {
		loaded = osid.Windows
	}
	if os == loaded {
		s := side(os, 8, 0)
		s.QueuedCPUs = 32
		s.QueuedJobs = 4
		return s
	}
	return side(os, 8, 8)
}

func (g *oscGateway) Detect(os osid.OS) detector.Report { return g.SideInfo(os).Report }

func (g *oscGateway) OrderSwitch(donor, target osid.OS, count int) int {
	g.orders = append(g.orders, orderRec{donor, target, count})
	return count
}

// runOscillating drives a manager with the given policy over 4h of
// demand swinging every 30m, reporting its stats and history.
func runOscillating(t *testing.T, policy Policy) (Stats, []DecisionRecord) {
	t.Helper()
	eng := simtime.NewEngine()
	gw := &oscGateway{now: eng.Now, period: 30 * time.Minute}
	bus := comm.NewBus(eng, time.Millisecond)
	m := NewManager(eng, bus, gw, Config{Cycle: 5 * time.Minute, Policy: policy})
	m.Start()
	// One extra second so the final cycle's STATE message clears the
	// 1 ms bus latency before the deadline.
	eng.RunUntil(4*time.Hour + time.Second)
	m.Stop()
	return m.Stats(), m.History()
}

// TestManagerNoFlapHistory is the manager-level no-flap regression:
// on the oscillating gateway the hysteresis policy must order strictly
// fewer switches than threshold, and its history must record the
// dwell-blocked cycles as explicit no-action decisions.
func TestManagerNoFlapHistory(t *testing.T) {
	thrStats, thrHist := runOscillating(t, Threshold{})
	hysStats, hysHist := runOscillating(t, &Hysteresis{})

	if thrStats.Switches == 0 {
		t.Fatal("threshold never switched on the oscillating trace")
	}
	if hysStats.Switches == 0 || hysStats.Switches >= thrStats.Switches {
		t.Fatalf("hysteresis switches = %d, threshold = %d; want strictly fewer (and > 0)",
			hysStats.Switches, thrStats.Switches)
	}
	// Every control cycle leaves a history record, acting or not.
	if len(thrHist) != thrStats.Cycles || len(hysHist) != hysStats.Cycles {
		t.Fatalf("history gaps: threshold %d/%d, hysteresis %d/%d",
			len(thrHist), thrStats.Cycles, len(hysHist), hysStats.Cycles)
	}
	dwellBlocked := 0
	for _, rec := range hysHist {
		if !rec.Decision.Act && strings.Contains(rec.Decision.Reason, "dwell") {
			dwellBlocked++
		}
	}
	if dwellBlocked == 0 {
		t.Fatal("no dwell-blocked cycles recorded in hysteresis history")
	}
}

// TestManagerPredictiveHistoryWarmsUp proves the predictive policy's
// first cycle is a recorded no-action warmup, after which sustained
// one-sided demand produces acting records.
func TestManagerPredictiveHistoryWarmsUp(t *testing.T) {
	gw := &fakeGateway{
		linux:     side(osid.Linux, 8, 6),
		windows:   stuck(side(osid.Windows, 8, 0), 32, "9.W"),
		acceptAll: true,
	}
	gw.windows.QueuedCPUs = 32
	gw.windows.QueuedJobs = 4
	gw.windows.ArrivedCPUs = 32
	eng, m, _ := newManager(t, gw, Config{Cycle: 10 * time.Minute, Policy: &Predictive{}})
	m.Start()
	eng.RunUntil(45 * time.Minute)
	m.Stop()
	hist := m.History()
	if len(hist) != 4 {
		t.Fatalf("history = %d records, want 4", len(hist))
	}
	if hist[0].Decision.Act || !strings.Contains(hist[0].Decision.Reason, "warming up") {
		t.Fatalf("first cycle should be a warmup no-op: %+v", hist[0].Decision)
	}
	acted := false
	for _, rec := range hist[1:] {
		acted = acted || rec.Decision.Act
	}
	if !acted {
		t.Fatalf("predictive never acted on sustained stuck demand: %+v", hist)
	}
}

func TestWindowsReportFromWireOverridesLocal(t *testing.T) {
	// The Linux decision must use the report that crossed the wire,
	// not a locally recomputed one: inject a gateway whose local
	// Windows view says "not stuck" but whose wire report says stuck.
	gw := &wireGateway{}
	eng, m, bus := newManager(t, gw, Config{Cycle: time.Hour})
	m.Start()
	// Hand-deliver a stuck STATE report as if from the Windows daemon.
	bus.Send(WindowsEndpoint, LinuxEndpoint, comm.Message{
		Kind: comm.KindState, From: osid.Windows,
		Report: detector.Report{Stuck: true, NeededCPUs: 4, StuckJobID: "99.W"},
	})
	eng.RunUntil(time.Second)
	m.Stop()
	if len(gw.orders) != 1 {
		t.Fatalf("wire report ignored: %+v", gw.orders)
	}
}

type wireGateway struct {
	orders []orderRec
}

func (g *wireGateway) SideInfo(os osid.OS) SideState {
	if os == osid.Linux {
		return side(osid.Linux, 8, 4) // idle donors available
	}
	return side(osid.Windows, 8, 0) // locally looks NOT stuck
}

func (g *wireGateway) Detect(os osid.OS) detector.Report { return g.SideInfo(os).Report }

func (g *wireGateway) OrderSwitch(donor, target osid.OS, count int) int {
	g.orders = append(g.orders, orderRec{donor, target, count})
	return count
}
