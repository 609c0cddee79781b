package controller

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/detector"
	"repro/internal/osid"
)

func side(os osid.OS, total, idle int) SideState {
	return SideState{OS: os, TotalNodes: total, IdleNodes: idle, CoresPerNode: 4}
}

func stuck(s SideState, cpus int, id string) SideState {
	s.Report = detector.Report{Stuck: true, NeededCPUs: cpus, StuckJobID: id}
	s.QueuedJobs = 1
	s.QueuedCPUs = cpus
	return s
}

// loaded returns a side whose queue holds the given CPU demand and
// whose nodes are all busy.
func loaded(os osid.OS, total, queuedCPUs int) SideState {
	s := side(os, total, 0)
	s.QueuedCPUs = queuedCPUs
	s.QueuedJobs = (queuedCPUs + 15) / 16
	if s.QueuedJobs < 1 && queuedCPUs > 0 {
		s.QueuedJobs = 1
	}
	return s
}

func TestFCFSNoStuckNoAction(t *testing.T) {
	d := FCFS{}.Decide(0, side(osid.Linux, 8, 2), side(osid.Windows, 8, 8))
	if d.Act {
		t.Fatalf("acted with nothing stuck: %+v", d)
	}
}

func TestFCFSLinuxStuckTakesWindowsIdle(t *testing.T) {
	lin := stuck(side(osid.Linux, 8, 0), 8, "5.eridani")
	win := side(osid.Windows, 8, 6)
	d := FCFS{}.Decide(0, lin, win)
	if !d.Act || d.Target != osid.Linux || d.Donor != osid.Windows {
		t.Fatalf("d = %+v", d)
	}
	if d.Nodes != 2 { // 8 CPUs / 4 per node
		t.Fatalf("nodes = %d, want 2", d.Nodes)
	}
	if !strings.Contains(d.Reason, "5.eridani") {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestFCFSWindowsStuckTakesLinuxIdle(t *testing.T) {
	lin := side(osid.Linux, 10, 5)
	win := stuck(side(osid.Windows, 6, 0), 4, "9.WINHEAD")
	d := FCFS{}.Decide(0, lin, win)
	if !d.Act || d.Target != osid.Windows || d.Donor != osid.Linux || d.Nodes != 1 {
		t.Fatalf("d = %+v", d)
	}
}

func TestFCFSCappedByDonatable(t *testing.T) {
	lin := stuck(side(osid.Linux, 8, 0), 64, "big")
	win := side(osid.Windows, 8, 3)
	d := FCFS{}.Decide(0, lin, win)
	if d.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3 (donor limit)", d.Nodes)
	}
}

func TestFCFSPendingAwayReducesDonatable(t *testing.T) {
	lin := stuck(side(osid.Linux, 8, 0), 64, "big")
	win := side(osid.Windows, 8, 3)
	win.PendingAway = 2
	d := FCFS{}.Decide(0, lin, win)
	if d.Nodes != 1 {
		t.Fatalf("nodes = %d, want 1 (3 idle - 2 pending)", d.Nodes)
	}
	win.PendingAway = 3
	d = FCFS{}.Decide(0, lin, win)
	if d.Act {
		t.Fatalf("acted with nothing donatable: %+v", d)
	}
}

func TestFCFSBothStuckWindowsWinsTie(t *testing.T) {
	// Both queues stuck with idle nodes on both sides (e.g. jobs just
	// finished everywhere): the Windows request is served first because
	// its report opens the control cycle.
	lin := stuck(side(osid.Linux, 8, 4), 4, "L")
	win := stuck(side(osid.Windows, 8, 4), 4, "W")
	d := FCFS{}.Decide(0, lin, win)
	if !d.Act || d.Target != osid.Windows {
		t.Fatalf("tie break = %+v", d)
	}
}

func TestFCFSZeroCPUStuckStillMovesOneNode(t *testing.T) {
	// A stuck report with CPUs=0 (malformed or zero-core request) still
	// moves one node rather than zero.
	lin := stuck(side(osid.Linux, 8, 0), 0, "odd")
	win := side(osid.Windows, 8, 2)
	d := FCFS{}.Decide(0, lin, win)
	if !d.Act || d.Nodes != 1 {
		t.Fatalf("d = %+v", d)
	}
}

func TestThresholdImbalanceRatio(t *testing.T) {
	p := Threshold{Ratio: 2}
	// Linux backlog 16 CPUs on 8×4 cores: pressure 0.5. Donor backlog 8
	// CPUs: pressure 0.25, threshold 2×0.25 = 0.5 — exactly at the
	// ratio, so the rule fires.
	lin := loaded(osid.Linux, 8, 16)
	win := loaded(osid.Windows, 8, 8)
	win.IdleNodes = 4
	if d := p.Decide(0, lin, win); !d.Act || d.Target != osid.Linux {
		t.Fatalf("at-ratio imbalance did not act: %+v", d)
	}
	// Donor backlog 9 CPUs: pressure 0.28, bar rises to 0.5625 > 0.5.
	win.QueuedCPUs = 9
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("acted under the imbalance ratio: %+v", d)
	}
}

func TestThresholdIdleDonorAnyBacklog(t *testing.T) {
	// Against a fully idle donor any unserved backlog trips the rule,
	// regardless of how large Ratio is.
	p := Threshold{Ratio: 100}
	lin := loaded(osid.Linux, 8, 4)
	win := side(osid.Windows, 8, 8)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Donor != osid.Windows || d.Nodes != 1 {
		t.Fatalf("d = %+v", d)
	}
}

func TestThresholdIdleCapacityAbsorbs(t *testing.T) {
	// Queued work the side's own idle cores can serve is not a reason
	// to pull nodes across.
	p := Threshold{}
	lin := side(osid.Linux, 8, 2) // 8 idle cores
	lin.QueuedCPUs = 8
	lin.QueuedJobs = 2
	win := side(osid.Windows, 8, 8)
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("acted with absorbing idle capacity: %+v", d)
	}
}

func TestThresholdStuckFloorsNeed(t *testing.T) {
	// A stuck wide job cannot use fragmented idle cores: the detector
	// report floors the need even when the CPU arithmetic says the
	// side has room.
	p := Threshold{}
	lin := stuck(side(osid.Linux, 8, 2), 8, "wide")
	win := side(osid.Windows, 8, 8)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Nodes != 2 {
		t.Fatalf("d = %+v", d)
	}
}

func TestThresholdReserveFloor(t *testing.T) {
	p := Threshold{Reserve: 6}
	lin := loaded(osid.Linux, 8, 64)
	win := side(osid.Windows, 8, 8)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Nodes != 2 {
		t.Fatalf("d = %+v, want 2 nodes (8 total - 6 reserve)", d)
	}
	p.Reserve = 8
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("acted at reserve floor: %+v", d)
	}
}

func TestThresholdMaxStepCaps(t *testing.T) {
	p := Threshold{} // default MaxStep 4
	lin := loaded(osid.Linux, 8, 640)
	win := side(osid.Windows, 16, 16)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Nodes != 4 {
		t.Fatalf("d = %+v, want the 4-node step cap", d)
	}
}

func TestThresholdMinQueuedCPUs(t *testing.T) {
	p := Threshold{MinQueuedCPUs: 8}
	lin := loaded(osid.Linux, 8, 4)
	win := side(osid.Windows, 8, 8)
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("acted below MinQueuedCPUs: %+v", d)
	}
	lin.QueuedCPUs = 8
	if d := p.Decide(0, lin, win); !d.Act {
		t.Fatalf("did not act at MinQueuedCPUs: %+v", d)
	}
}

func TestHysteresisDonatesOverWatermark(t *testing.T) {
	p := &Hysteresis{}
	lin := loaded(osid.Linux, 8, 24) // pressure 0.75 = donate watermark
	win := side(osid.Windows, 8, 8)  // pressure 0 ≤ reclaim watermark
	d := p.Decide(0, lin, win)
	if !d.Act || d.Target != osid.Linux || d.Donor != osid.Windows {
		t.Fatalf("d = %+v", d)
	}
}

func TestHysteresisDeadBand(t *testing.T) {
	p := &Hysteresis{DonateWater: 0.75, ReclaimWater: 0.25}
	// Needy side inside the band: pressure 0.5 < donate watermark.
	lin := loaded(osid.Linux, 8, 16)
	win := side(osid.Windows, 8, 8)
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("acted inside the dead band: %+v", d)
	}
	// Needy side over the donate watermark but donor over the reclaim
	// watermark: the donor is too busy to strip.
	lin = loaded(osid.Linux, 8, 32)
	win = loaded(osid.Windows, 8, 16)
	win.IdleNodes = 4
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("stripped a donor over the reclaim watermark: %+v", d)
	}
}

func TestHysteresisDwellBoundary(t *testing.T) {
	p := &Hysteresis{MinDwell: 30 * time.Minute}
	lin := loaded(osid.Linux, 8, 32)
	win := side(osid.Windows, 8, 8)

	if d := p.Decide(0, lin, win); !d.Act {
		t.Fatalf("first switch blocked: %+v", d)
	}
	// Strictly inside the dwell window: blocked, and the reason says so.
	d := p.Decide(30*time.Minute-time.Nanosecond, lin, win)
	if d.Act {
		t.Fatalf("acted inside dwell: %+v", d)
	}
	if !strings.Contains(d.Reason, "dwell") {
		t.Fatalf("reason = %q, want dwell", d.Reason)
	}
	// Exactly at the boundary: the window has elapsed.
	if d := p.Decide(30*time.Minute, lin, win); !d.Act {
		t.Fatalf("blocked at exact dwell boundary: %+v", d)
	}
	// And the new switch re-arms the window from its own timestamp.
	if d := p.Decide(40*time.Minute, lin, win); d.Act {
		t.Fatalf("dwell not re-armed: %+v", d)
	}
}

func TestHysteresisNoActionDoesNotArmDwell(t *testing.T) {
	p := &Hysteresis{MinDwell: time.Hour}
	idle := side(osid.Linux, 8, 8)
	win := side(osid.Windows, 8, 8)
	p.Decide(0, idle, win) // nothing queued, no switch
	d := p.Decide(time.Minute, loaded(osid.Linux, 8, 32), win)
	if !d.Act {
		t.Fatalf("dwell armed by a no-op cycle: %+v", d)
	}
}

// TestNoFlapHysteresisVsThreshold is the no-flap regression: on demand
// that oscillates between the sides every cycle, the threshold rule
// chases every swing while hysteresis — dead band plus dwell — must
// perform strictly fewer switches.
func TestNoFlapHysteresisVsThreshold(t *testing.T) {
	thr := Threshold{}
	hys := &Hysteresis{}
	states := func(i int) (lin, win SideState) {
		lin = loaded(osid.Linux, 8, 32)
		win = side(osid.Windows, 8, 8)
		if i%2 == 1 {
			win = loaded(osid.Windows, 8, 32)
			lin = side(osid.Linux, 8, 8)
		}
		return
	}
	thrActs, hysActs := 0, 0
	cycle := 5 * time.Minute
	for i := 0; i < 24; i++ {
		now := time.Duration(i) * cycle
		lin, win := states(i)
		if thr.Decide(now, lin, win).Act {
			thrActs++
		}
		if hys.Decide(now, lin, win).Act {
			hysActs++
		}
	}
	if thrActs != 24 {
		t.Fatalf("threshold acted %d/24 times on the oscillating feed", thrActs)
	}
	if hysActs == 0 || hysActs >= thrActs {
		t.Fatalf("hysteresis acted %d times, want 0 < acts < %d", hysActs, thrActs)
	}
	// 24 cycles × 5m = 2h; a 30m dwell admits at most 5 switches.
	if hysActs > 5 {
		t.Fatalf("hysteresis acted %d times, dwell admits at most 5", hysActs)
	}
}

func TestPredictiveWarmsUpBeforeActing(t *testing.T) {
	p := &Predictive{}
	lin := loaded(osid.Linux, 8, 32)
	win := side(osid.Windows, 8, 8)
	d := p.Decide(0, lin, win)
	if d.Act {
		t.Fatalf("acted with no rate history: %+v", d)
	}
	if !strings.Contains(d.Reason, "warming up") {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestPredictiveProjectsArrivals(t *testing.T) {
	p := &Predictive{}
	quietL := side(osid.Linux, 14, 10)
	quietW := side(osid.Windows, 2, 0)
	p.Decide(0, quietL, quietW) // warmup primes the counters

	// One hour later 40 CPUs of Windows work have arrived, 12 still
	// queued; EWMA rate = 0.3×40 = 12 cpu/h. Over a 30m switch horizon
	// that projects 12 + 6 − 0 = 18 CPUs of surviving backlog.
	win := loaded(osid.Windows, 2, 12)
	win.ArrivedCPUs = 40
	win.SwitchLatency = 30 * time.Minute
	d := p.Decide(time.Hour, quietL, win)
	if !d.Act || d.Target != osid.Windows || d.Donor != osid.Linux {
		t.Fatalf("d = %+v", d)
	}
	if d.Nodes != 4 { // 18 CPUs wants 5 nodes, step cap 4
		t.Fatalf("nodes = %d, want the 4-node step cap", d.Nodes)
	}
}

func TestPredictiveLatencyDiscountsDrainingQueue(t *testing.T) {
	// A queue the side's own idle cores will absorb before a reboot
	// could land is not worth a switch: the projection discounts the
	// backlog by the switch latency.
	p := &Predictive{}
	lin := side(osid.Linux, 8, 8)
	win := side(osid.Windows, 8, 1)
	p.Decide(0, lin, win)

	win.QueuedCPUs = 4
	win.QueuedJobs = 1
	win.SwitchLatency = 30 * time.Minute // no arrivals → projection 4 − 4 = 0
	if d := p.Decide(time.Hour, lin, win); d.Act {
		t.Fatalf("switched for a self-draining queue: %+v", d)
	}
}

func TestPredictiveDonorKeepsAheadOfOwnDemand(t *testing.T) {
	// The donor's own predicted arrivals block the donation even when
	// it has idle nodes right now.
	p := &Predictive{}
	lin := side(osid.Linux, 8, 2)
	win := side(osid.Windows, 8, 0)
	p.Decide(0, lin, win)

	lin2 := side(osid.Linux, 8, 2)
	lin2.ArrivedCPUs = 200 // EWMA 60 cpu/h → 30 CPUs over the horizon
	win2 := loaded(osid.Windows, 8, 32)
	win2.SwitchLatency = 30 * time.Minute
	if d := p.Decide(time.Hour, lin2, win2); d.Act {
		t.Fatalf("stripped a donor with predicted demand: %+v", d)
	}
}

func TestPredictiveStuckFloorsProjection(t *testing.T) {
	// A stuck wide job survives any amount of idle capacity: the
	// detector report floors the projection.
	p := &Predictive{}
	lin := side(osid.Linux, 8, 8)
	win := side(osid.Windows, 8, 2)
	p.Decide(0, lin, win)

	win2 := stuck(side(osid.Windows, 8, 2), 16, "wide")
	if d := p.Decide(time.Hour, lin, win2); !d.Act || d.Target != osid.Windows {
		t.Fatalf("d = %+v", d)
	}
}

func TestFairShareMovesTowardDemand(t *testing.T) {
	p := FairShare{MaxStep: 4}
	lin := side(osid.Linux, 8, 0)
	lin.QueuedCPUs = 48
	lin.QueuedJobs = 6
	win := side(osid.Windows, 8, 8)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Target != osid.Linux {
		t.Fatalf("d = %+v", d)
	}
	if d.Nodes < 1 || d.Nodes > 4 {
		t.Fatalf("nodes = %d outside step bound", d.Nodes)
	}
}

func TestFairShareRespectsMaxStep(t *testing.T) {
	p := FairShare{MaxStep: 1}
	lin := side(osid.Linux, 2, 0)
	lin.QueuedCPUs = 100
	win := side(osid.Windows, 14, 14)
	d := p.Decide(0, lin, win)
	if !d.Act || d.Nodes != 1 {
		t.Fatalf("d = %+v", d)
	}
}

func TestFairShareBalancedNoMove(t *testing.T) {
	p := FairShare{}
	lin := side(osid.Linux, 8, 2)
	lin.QueuedCPUs = 16
	win := side(osid.Windows, 8, 2)
	win.QueuedCPUs = 16
	if d := p.Decide(0, lin, win); d.Act {
		t.Fatalf("moved on balanced demand: %+v", d)
	}
}

func TestFairShareNoDemand(t *testing.T) {
	p := FairShare{}
	if d := p.Decide(0, side(osid.Linux, 8, 8), side(osid.Windows, 8, 8)); d.Act {
		t.Fatalf("moved with no demand: %+v", d)
	}
}

func TestFairShareKeepsOneNodePerDemandingSide(t *testing.T) {
	p := FairShare{MaxStep: 16}
	lin := side(osid.Linux, 8, 0)
	lin.QueuedCPUs = 1000
	lin.QueuedJobs = 10
	win := side(osid.Windows, 8, 8)
	win.QueuedCPUs = 4
	win.QueuedJobs = 1
	d := p.Decide(0, lin, win)
	if !d.Act {
		t.Fatal("no move")
	}
	if win.TotalNodes-d.Nodes < 1 {
		t.Fatalf("windows stripped to %d nodes despite demand", win.TotalNodes-d.Nodes)
	}
}

func TestDonatableNodes(t *testing.T) {
	s := SideState{IdleNodes: 3, PendingAway: 1}
	if s.DonatableNodes() != 2 {
		t.Fatalf("= %d", s.DonatableNodes())
	}
	s.PendingAway = 5
	if s.DonatableNodes() != 0 {
		t.Fatalf("= %d, want clamp at 0", s.DonatableNodes())
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Act: true, Target: osid.Linux, Donor: osid.Windows, Nodes: 2, Reason: "r"}
	if !strings.Contains(d.String(), "windows->linux") {
		t.Fatalf("String() = %q", d.String())
	}
	n := Decision{Reason: "idle"}
	if !strings.Contains(n.String(), "no-switch") {
		t.Fatalf("String() = %q", n.String())
	}
}

func TestPolicyNamesMatchRegistry(t *testing.T) {
	want := []string{"fcfs", "threshold", "hysteresis", "predictive", "fairshare"}
	got := PolicyNames()
	if len(got) != len(want) {
		t.Fatalf("PolicyNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PolicyNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestParsePolicyUnknownListsValidSet(t *testing.T) {
	_, err := ParsePolicy("fifo")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestParsePolicyReturnsFreshInstances(t *testing.T) {
	a, _ := ParsePolicy("hysteresis")
	b, _ := ParsePolicy("hysteresis")
	if a == b {
		t.Fatal("ParsePolicy shared a stateful instance")
	}
	// Acting through one instance must not arm the other's dwell.
	lin := loaded(osid.Linux, 8, 32)
	win := side(osid.Windows, 8, 8)
	if d := a.Decide(0, lin, win); !d.Act {
		t.Fatalf("a did not act: %+v", d)
	}
	if d := b.Decide(time.Minute, lin, win); !d.Act {
		t.Fatalf("b inherited a's dwell state: %+v", d)
	}
}

func TestNodesForRounding(t *testing.T) {
	s := SideState{CoresPerNode: 4}
	cases := map[int]int{0: 1, 1: 1, 4: 1, 5: 2, 8: 2, 9: 3}
	for cpus, want := range cases {
		if got := s.nodesFor(cpus); got != want {
			t.Errorf("nodesFor(%d) = %d, want %d", cpus, got, want)
		}
	}
	zero := SideState{}
	if zero.nodesFor(8) != 2 {
		t.Error("default cores-per-node not applied")
	}
}

// Property: no policy ever orders more nodes than the donor can give,
// targets an invalid OS, or acts without demand. Stateful policies get
// a fresh instance per case and two observation cycles so the
// predictive rule has a rate history to act on.
func TestQuickPoliciesRespectDonatable(t *testing.T) {
	f := func(linTotal, linIdle, winTotal, winIdle, cpus uint8, linStuck, winStuck bool) bool {
		lin := SideState{OS: osid.Linux, CoresPerNode: 4,
			TotalNodes: int(linTotal % 16), IdleNodes: int(linIdle % 16)}
		if lin.IdleNodes > lin.TotalNodes {
			lin.IdleNodes = lin.TotalNodes
		}
		win := SideState{OS: osid.Windows, CoresPerNode: 4,
			TotalNodes: int(winTotal % 16), IdleNodes: int(winIdle % 16)}
		if win.IdleNodes > win.TotalNodes {
			win.IdleNodes = win.TotalNodes
		}
		if linStuck {
			lin = stuck(lin, int(cpus), "L")
		}
		if winStuck {
			win = stuck(win, int(cpus), "W")
		}
		lin.ArrivedCPUs = lin.QueuedCPUs
		win.ArrivedCPUs = win.QueuedCPUs
		policies := []Policy{
			FCFS{}, Threshold{}, &Hysteresis{}, &Predictive{}, FairShare{MaxStep: 3},
		}
		for _, p := range policies {
			p.Decide(0, lin, win)
			d := p.Decide(time.Hour, lin, win)
			if !d.Act {
				continue
			}
			if !d.Target.Valid() || !d.Donor.Valid() || d.Target == d.Donor {
				return false
			}
			donor := lin
			if d.Donor == osid.Windows {
				donor = win
			}
			if d.Nodes <= 0 || d.Nodes > donor.DonatableNodes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFCFSNeverSwitchesWithoutStuckQueue pins E20's structural zero at
// the policy level: over a table of side states whose reports follow
// the detector's stuck rule (no job running, at least one queued),
// FCFS never acts while every side with a queue also runs a job, and
// does act on a stuck side whose peer has a donatable node.
func TestFCFSNeverSwitchesWithoutStuckQueue(t *testing.T) {
	var states []SideState
	for _, running := range []int{0, 1, 5} {
		for _, queued := range []int{0, 1, 7} {
			for _, idle := range []int{0, 2, 8} {
				for _, pending := range []int{0, 1} {
					s := side(osid.None, 8, idle)
					s.RunningJobs, s.QueuedJobs, s.QueuedCPUs, s.PendingAway = running, queued, 4*queued, pending
					s.Report = detector.Report{StuckJobID: detector.NoneID}
					if running == 0 && queued > 0 {
						s.Report = detector.Report{Stuck: true, NeededCPUs: 4, StuckJobID: "1.head"}
					}
					states = append(states, s)
				}
			}
		}
	}
	saturated, acted := 0, 0
	for _, linux := range states {
		for _, windows := range states {
			linux.OS, windows.OS = osid.Linux, osid.Windows
			d := FCFS{}.Decide(0, linux, windows)
			switch {
			case (linux.QueuedJobs == 0 || linux.RunningJobs > 0) && (windows.QueuedJobs == 0 || windows.RunningJobs > 0):
				saturated++
				if d.Act {
					t.Fatalf("fcfs switched with no stuck queue: linux %+v, windows %+v: %v", linux, windows, d)
				}
			case linux.Report.Stuck && windows.DonatableNodes() > 0 || windows.Report.Stuck && linux.DonatableNodes() > 0:
				acted++
				if !d.Act {
					t.Fatalf("fcfs ignored a stuck side with a donor: linux %+v, windows %+v: %v", linux, windows, d)
				}
			}
		}
	}
	if saturated == 0 || acted == 0 {
		t.Fatalf("table covers %d unstuck and %d stuck pairs", saturated, acted)
	}
}
