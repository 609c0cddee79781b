package controller

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/osid"
	"repro/internal/simtime"
)

// TestControlCycleAllocatesNothing: once warm, a control cycle in which
// neither side is stuck allocates nothing under any policy. Such a
// cycle is the Windows report encoded onto a real bus, parsed on
// delivery, decided and logged. Both sides run jobs with a queue
// behind them and no idle node, the saturated shape of E20's metro
// cells. The decision log takes a 64-record chunk once per 64 cycles;
// AllocsPerRun's per-run count, rounded down over 1000 one-cycle runs,
// absorbs that, while one allocation per cycle would read 1.
func TestControlCycleAllocatesNothing(t *testing.T) {
	busy := func(os osid.OS) SideState {
		s := side(os, 8, 0)
		s.RunningJobs, s.QueuedJobs, s.QueuedCPUs, s.ArrivedCPUs = 4, 2, 8, 40
		return s
	}
	const cycle = time.Minute
	for _, f := range Factories() {
		t.Run(f.Name, func(t *testing.T) {
			gw := &fakeGateway{linux: busy(osid.Linux), windows: busy(osid.Windows), acceptAll: true}
			eng := simtime.NewEngine()
			bus := comm.NewBus(eng, time.Millisecond)
			m := NewManager(eng, bus, gw, Config{Cycle: cycle, Policy: f.New()})
			m.Start()
			eng.RunUntil(10*cycle + time.Second) // warm-up
			before := m.Stats().Cycles
			allocs := testing.AllocsPerRun(1000, func() { eng.RunUntil(eng.Now() + cycle) })
			m.Stop()
			st := m.Stats()
			if ran := st.Cycles - before; ran != 1001 { // AllocsPerRun adds a warm-up run
				t.Fatalf("%d cycles ran, want 1001", ran)
			}
			if st.Switches != 0 || len(m.History()) != st.Cycles {
				t.Fatalf("stats %+v, %d history records: want no switch and one record per cycle", st, len(m.History()))
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per control cycle, want 0", allocs)
			}
		})
	}
}
