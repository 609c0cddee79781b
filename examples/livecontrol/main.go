// Live-wire control loop: the head-node communicators exchange the
// paper's Figure-5 queue-state format over real localhost TCP sockets
// while a simulated cluster responds to the reboot orders. This is the
// same protocol cmd/dualbootd runs, shown at library level.
//
//	go run ./examples/livecontrol
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/controller"
	"repro/internal/grid"
	"repro/internal/osid"
	"repro/internal/workload"
)

func main() {
	// A single cluster is a one-member grid: the grid routes its trace.
	g, err := grid.New(grid.RouteLeastLoaded, []grid.MemberSpec{
		{Config: cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: time.Hour}},
	})
	if err != nil {
		log.Fatal(err)
	}
	c := g.Members()[0].Cluster
	c.Mgr.Stop() // replace the in-process loop with the TCP one

	// Wedge the Windows queue: one wide CFD job, zero Windows nodes.
	err = g.ScheduleTrace(workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 1, Gap: time.Minute, App: "ANSYS FLUENT",
		OS: osid.Windows, Nodes: 4, PPN: 4, Runtime: 90 * time.Minute, Owner: "cfd",
	}))
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	policy := controller.FCFS{}

	lin, err := comm.ListenTCP("127.0.0.1:0", func(from string, m comm.Message) {
		if m.Kind != comm.KindState {
			return
		}
		mu.Lock()
		win := c.SideInfo(osid.Windows)
		win.Report = m.Report
		linSide := c.SideInfo(osid.Linux)
		linSide.Report = c.Detect(osid.Linux)
		d := policy.Decide(c.Eng.Now(), linSide, win)
		submitted := 0
		if d.Act {
			submitted = c.OrderSwitch(d.Donor, d.Target, d.Nodes)
		}
		mu.Unlock()
		fmt.Printf("  LINHEAD: %s (submitted %d)\n", d, submitted)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lin.Close()
	fmt.Printf("LINHEAD communicator on %s\n", lin.Addr())

	for cycle := 1; cycle <= 3; cycle++ {
		mu.Lock()
		g.Eng.RunFor(10 * time.Minute)
		rep := c.Detect(osid.Windows)
		mu.Unlock()
		msg := comm.Message{Kind: comm.KindState, From: osid.Windows, Report: rep}
		fmt.Printf("cycle %d: WINHEAD sends %q\n", cycle, msg.Encode())
		if err := comm.SendTCP(lin.Addr(), msg, 2*time.Second); err != nil {
			log.Fatal(err)
		}
		//simlint:allow walltime -- interactive demo pacing real output
		time.Sleep(30 * time.Millisecond)
	}

	mu.Lock()
	g.RunUntilDrained(24 * time.Hour)
	sum := c.Summary()
	mu.Unlock()
	fmt.Printf("\ndone: windows job completed=%d, switches=%d, max switch %v\n",
		sum.JobsCompleted[osid.Windows], sum.Switches, sum.MaxSwitch.Round(time.Second))
}
