// Command dualbootd demonstrates the dualboot-oscar daemons talking
// over real TCP sockets, the way the paper's Perl/Cygwin communicators
// did between the two Eridani head nodes. A simulated hybrid cluster
// provides the queue states; the control messages — the Figure-5 wire
// format inside STATE lines, and REBOOT orders back — cross actual
// localhost connections.
//
// Usage:
//
//	dualbootd                 # run the demo exchange
//	dualbootd -cycles 5       # more control cycles
//	dualbootd -listen :7401   # pick the LINHEAD port
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/controller"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/workload"
)

func main() {
	var (
		listenLin = flag.String("listen", "127.0.0.1:0", "LINHEAD listen address")
		listenWin = flag.String("listen-win", "127.0.0.1:0", "WINHEAD listen address")
		cycles    = flag.Int("cycles", 3, "control cycles to run")
	)
	flag.Parse()

	if err := run(*listenLin, *listenWin, *cycles); err != nil {
		fmt.Fprintln(os.Stderr, "dualbootd:", err)
		os.Exit(1)
	}
}

func run(linAddr, winAddr string, cycles int) error {
	// The cluster under control, a one-member grid: all nodes Linux, a
	// Windows burst arriving to wedge the Windows queue.
	g, err := grid.New(grid.RouteLeastLoaded, []grid.MemberSpec{
		{Config: cluster.Config{Mode: cluster.HybridV2, InitialLinux: 16, Cycle: time.Hour}},
	})
	if err != nil {
		return err
	}
	c := g.Members()[0].Cluster
	c.Mgr.Stop() // the in-process controller yields to the TCP daemons
	trace := workload.Burst(workload.BurstConfig{
		Start: 0, Jobs: 2, Gap: time.Minute, App: "ANSYS FLUENT",
		OS: osid.Windows, Nodes: 3, PPN: 4, Runtime: time.Hour, Owner: "cfd",
	})
	if err := g.ScheduleTrace(trace); err != nil {
		return err
	}

	var mu sync.Mutex // guards the cluster across connection goroutines

	// LINHEAD: the decision maker. On a STATE report it consults PBS
	// and replies with reboot orders (Figure 11 steps 3–5).
	var winServerAddr string
	linSrv, err := comm.ListenTCP(linAddr, func(from string, m comm.Message) {
		if m.Kind != comm.KindState {
			return
		}
		mu.Lock()
		windows := c.SideInfo(osid.Windows)
		windows.Report = m.Report
		linux := c.SideInfo(osid.Linux)
		linux.Report = c.Detect(osid.Linux)
		mu.Unlock()
		fmt.Printf("LINHEAD <- STATE %s %s (from %s)\n", m.From, m.Report.Encode(), from)

		d := (controller.FCFS{}).Decide(0, linux, windows)
		fmt.Printf("LINHEAD decision: %s\n", d)
		if !d.Act {
			return
		}
		switch d.Donor {
		case osid.Linux:
			mu.Lock()
			n := c.OrderSwitch(osid.Linux, d.Target, d.Nodes)
			mu.Unlock()
			fmt.Printf("LINHEAD: submitted %d switch job(s) to PBS\n", n)
		case osid.Windows:
			order := comm.Message{Kind: comm.KindReboot, From: osid.Linux, Target: d.Target, Count: d.Nodes}
			if err := comm.SendTCP(winServerAddr, order, 2*time.Second); err != nil {
				fmt.Println("LINHEAD: reboot order failed:", err)
				return
			}
			fmt.Printf("LINHEAD -> %s\n", order.Encode())
		}
	})
	if err != nil {
		return err
	}
	defer linSrv.Close()

	// WINHEAD: executes reboot orders against its own scheduler.
	winSrv, err := comm.ListenTCP(winAddr, func(from string, m comm.Message) {
		if m.Kind != comm.KindReboot {
			return
		}
		mu.Lock()
		n := c.OrderSwitch(osid.Windows, m.Target, m.Count)
		mu.Unlock()
		fmt.Printf("WINHEAD <- %s: submitted %d switch job(s)\n", m.Encode(), n)
	})
	if err != nil {
		return err
	}
	defer winSrv.Close()
	winServerAddr = winSrv.Addr()

	fmt.Printf("LINHEAD listening on %s, WINHEAD on %s\n", linSrv.Addr(), winSrv.Addr())
	fmt.Printf("cluster: %d nodes all Linux; %d Windows jobs queued\n\n", 16, len(trace))

	// The Windows communicator's fixed cycle (Figure 11 steps 1–2):
	// fetch queue state, ship it to LINHEAD over TCP, then let the
	// simulated cluster advance.
	for i := 0; i < cycles; i++ {
		mu.Lock()
		g.Eng.RunFor(10 * time.Minute)
		rep := c.Detect(osid.Windows)
		mu.Unlock()
		msg := comm.Message{Kind: comm.KindState, From: osid.Windows, Report: rep}
		fmt.Printf("WINHEAD -> %s\n", msg.Encode())
		if err := comm.SendTCP(linSrv.Addr(), msg, 2*time.Second); err != nil {
			return fmt.Errorf("state send: %w", err)
		}
		//simlint:allow walltime -- live daemon shutdown grace, not simulation time
		time.Sleep(50 * time.Millisecond) // let handlers finish
	}

	// Drain the simulation and report.
	mu.Lock()
	g.RunUntilDrained(48 * time.Hour)
	sum := c.Summary()
	mu.Unlock()
	fmt.Printf("\nfinal: windows jobs %d/%d completed, %d switches (mean %s), util %s\n",
		sum.JobsCompleted[osid.Windows], sum.JobsSubmitted[osid.Windows],
		sum.Switches, metrics.Dur(sum.MeanSwitch), metrics.Pct(sum.Utilisation))
	return nil
}
