package hybridcluster

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see experiments.All in internal/experiments for
// the experiment index and EXPERIMENTS.md for paper-vs-measured). Each benchmark runs the full
// scenario per iteration and reports the experiment's headline numbers
// through b.ReportMetric, so `go test -bench=. -benchmem` reproduces
// the whole evaluation. cmd/benchtab prints the same experiments as
// full text tables.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bootmgr"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/deploy"
	"repro/internal/detector"
	"repro/internal/grubcfg"
	"repro/internal/hardware"
	"repro/internal/oscar"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// BenchmarkE1_TableI_Placement schedules one job per Table-I
// application on the hybrid and verifies every application lands on
// (and completes in) an operating system it supports.
func BenchmarkE1_TableI_Placement(b *testing.B) {
	var completed int
	for i := 0; i < b.N; i++ {
		var trace workload.Trace
		at := time.Duration(0)
		for _, app := range workload.Catalog {
			os := osid.Linux
			if app.Platform == workload.WindowsOnly {
				os = osid.Windows
			}
			trace = append(trace, workload.Job{
				At: at, App: app.Name, OS: os, Owner: "bench",
				Nodes: 1, PPN: app.TypicalPPN, Runtime: 30 * time.Minute,
			})
			at += time.Minute
		}
		res, err := Run(Scenario{
			Name:    "table1",
			Cluster: ClusterConfig{Mode: HybridV2, Cycle: 5 * time.Minute},
			Trace:   trace,
		})
		if err != nil {
			b.Fatal(err)
		}
		completed = res.Summary.JobsCompleted[osid.Linux] + res.Summary.JobsCompleted[osid.Windows]
		if completed != len(workload.Catalog) {
			b.Fatalf("completed %d of %d catalog apps", completed, len(workload.Catalog))
		}
	}
	b.ReportMetric(float64(completed), "apps-placed")
}

// BenchmarkE2_GrubRoundTrip parses and re-renders the paper's Figure-2
// and Figure-3 GRUB artifacts and flips the default OS, the core v1
// control operation.
func BenchmarkE2_GrubRoundTrip(b *testing.B) {
	ctl, err := grubcfg.ControlMenu(grubcfg.DefaultLinuxEntry(), grubcfg.DefaultWindowsEntry(), osid.Linux)
	if err != nil {
		b.Fatal(err)
	}
	src := ctl.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := grubcfg.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := cfg.SetDefaultOS(osid.Windows); err != nil {
			b.Fatal(err)
		}
		out := cfg.Render()
		if len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkE3_SwitchJob runs the Figure-4 OS-switch batch job on a
// fresh cluster: full-node booking, control-file flip, reboot, and
// reports the end-to-end switch latency.
func BenchmarkE3_SwitchJob(b *testing.B) {
	var switchSec float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{Mode: cluster.HybridV1, Nodes: 4, InitialLinux: 4})
		if err != nil {
			b.Fatal(err)
		}
		script := c.SwitchJobScript(osid.Windows)
		if _, err := pbs.ParseScript(script); err != nil {
			b.Fatal(err)
		}
		if n := c.OrderSwitch(osid.Linux, osid.Windows, 1); n != 1 {
			b.Fatalf("submitted %d", n)
		}
		c.Eng.RunFor(time.Hour)
		sw := c.Rec.Switches()
		if len(sw) != 1 || !sw[0].OK {
			b.Fatalf("switch records = %+v", sw)
		}
		switchSec = sw[0].Duration().Seconds()
	}
	b.ReportMetric(switchSec, "switch-sec")
}

// BenchmarkE4_DetectorWire drives PBS into the three Figure-6 states
// and encodes/parses the Figure-5 wire format.
func BenchmarkE4_DetectorWire(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simtime.NewEngine()
		s := pbs.NewServer(eng, "eridani.qgg.hud.ac.uk")
		s.AddNode("enode01", 4, true)
		det := detector.NewPBSDetector(s)

		rep, err := det.Detect() // other state
		if err != nil || rep.Encode() != "00000none" {
			b.Fatalf("other: %q %v", rep.Encode(), err)
		}
		s.Qsub(pbs.SubmitRequest{Name: "sleep", Nodes: 1, PPN: 4, Runtime: time.Hour})
		eng.RunUntil(time.Second)
		rep, _ = det.Detect() // running
		if rep.Stuck {
			b.Fatal("running misreported")
		}
		// The node reboots into Windows: the queue wedges with a
		// feasible job waiting and nothing running.
		s.Qdel("1.eridani.qgg.hud.ac.uk")
		s.SetNodeAvailable("enode01", false)
		s.Qsub(pbs.SubmitRequest{Name: "big", Nodes: 1, PPN: 4, Runtime: time.Hour})
		eng.RunUntil(2 * time.Second)
		rep, _ = det.Detect() // stuck
		if !rep.Stuck || rep.NeededCPUs != 4 {
			b.Fatalf("stuck rep = %+v", rep)
		}
		back, err := detector.Parse(rep.Encode())
		if err != nil || back != rep {
			b.Fatalf("round trip: %+v vs %+v", back, rep)
		}
	}
}

// BenchmarkE5_PBSTextRoundTrip renders and scrapes qstat -f and
// pbsnodes for a loaded 16-node cluster (Figures 7–8).
func BenchmarkE5_PBSTextRoundTrip(b *testing.B) {
	eng := simtime.NewEngine()
	s := pbs.NewServer(eng, "eridani.qgg.hud.ac.uk")
	for i := 1; i <= 16; i++ {
		s.AddNode(fmt.Sprintf("enode%02d", i), 4, true)
	}
	for i := 0; i < 24; i++ {
		s.Qsub(pbs.SubmitRequest{Name: fmt.Sprintf("job%d", i), Nodes: 1, PPN: 4, Runtime: time.Hour})
	}
	eng.RunUntil(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := pbs.ParseQstatF(s.QstatF())
		if err != nil || len(jobs) != 24 {
			b.Fatalf("jobs = %d, %v", len(jobs), err)
		}
		nodes, err := pbs.ParsePBSNodes(s.PBSNodes())
		if err != nil || len(nodes) != 16 {
			b.Fatalf("nodes = %d, %v", len(nodes), err)
		}
	}
}

// BenchmarkE6_Diskpart reimages Windows with the v1 (Figure 10,
// clean-based) and v2 (Figure 15, partition-1-only) scripts and
// reports how many Linux partitions each destroys.
func BenchmarkE6_Diskpart(b *testing.B) {
	run := func(b *testing.B, script string) float64 {
		var lost float64
		for i := 0; i < b.N; i++ {
			n := hardware.NewNode(hardware.NodeSpec{Index: 1})
			dp, _ := deploy.ParseDiskpart(deploy.V1Diskpart)
			if _, err := deploy.DeployWindows(n, dp); err != nil {
				b.Fatal(err)
			}
			layout, _ := deploy.ParseIdeDisk(deploy.V1IdeDisk)
			img, err := oscar.BuildImage("img", oscar.V1, layout)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := oscar.DeployNode(n, img); err != nil {
				b.Fatal(err)
			}
			re, _ := deploy.ParseDiskpart(script)
			rep, err := deploy.DeployWindows(n, re)
			if err != nil {
				b.Fatal(err)
			}
			lost = float64(rep.LinuxPartitionsLost)
		}
		return lost
	}
	b.Run("v1-clean", func(b *testing.B) {
		lost := run(b, deploy.V1Diskpart)
		if lost == 0 {
			b.Fatal("v1 reimage lost nothing?")
		}
		b.ReportMetric(lost, "linux-parts-lost")
	})
	b.Run("v2-partition1", func(b *testing.B) {
		lost := run(b, deploy.V2ReimageDiskpart)
		if lost != 0 {
			b.Fatalf("v2 reimage lost %v linux partitions", lost)
		}
		b.ReportMetric(lost, "linux-parts-lost")
	})
}

// BenchmarkE7_IdeDisk builds the OSCAR image from the Figure-14 layout
// and deploys it twice over a Windows install, verifying the skip
// label preserves the Windows partition.
func BenchmarkE7_IdeDisk(b *testing.B) {
	var preserved float64
	for i := 0; i < b.N; i++ {
		layout, err := deploy.ParseIdeDisk(deploy.V2IdeDisk)
		if err != nil {
			b.Fatal(err)
		}
		img, err := oscar.BuildImage("oscarimage", oscar.V2, layout)
		if err != nil {
			b.Fatal(err)
		}
		n := hardware.NewNode(hardware.NodeSpec{Index: 1})
		dp, _ := deploy.ParseDiskpart(deploy.V2InitialDiskpart)
		if _, err := deploy.DeployWindows(n, dp); err != nil {
			b.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			rep, err := oscar.DeployNode(n, img)
			if err != nil {
				b.Fatal(err)
			}
			if rep.WindowsLost {
				b.Fatal("skip label failed")
			}
			preserved = float64(rep.PartitionsPreserved)
		}
	}
	b.ReportMetric(preserved, "parts-preserved")
}

// BenchmarkE8_ControlLoop pushes the same stuck-queue scenario through
// v1 and v2 and reports control actions per switched node: v1 needs
// one FAT edit per node, v2 one flag set per direction change
// (Figures 1 and 11–13).
func BenchmarkE8_ControlLoop(b *testing.B) {
	run := func(b *testing.B, mode cluster.Mode) (actions, switches float64) {
		for i := 0; i < b.N; i++ {
			// One wide Windows job on an all-Linux cluster: the stuck
			// queue forces a batch of node switches in one decision.
			res, err := Run(Scenario{
				Name:    mode.String(),
				Cluster: ClusterConfig{Mode: mode, InitialLinux: 16, Cycle: 5 * time.Minute},
				Trace: BurstTrace(BurstConfig{Start: 0, Jobs: 1, Gap: time.Minute,
					App: "ANSYS FLUENT", OS: osid.Windows, Nodes: 4, PPN: 4,
					Runtime: time.Hour, Owner: "cfd"}),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Summary.JobsCompleted[osid.Windows] != 1 {
				b.Fatalf("%s completed %v", mode, res.Summary.JobsCompleted)
			}
			actions = float64(res.ControlActions)
			switches = float64(res.Summary.Switches)
		}
		return actions, switches
	}
	b.Run("v1", func(b *testing.B) {
		actions, switches := run(b, cluster.HybridV1)
		b.ReportMetric(actions, "control-actions")
		b.ReportMetric(switches, "switches")
		if actions < switches {
			b.Fatalf("v1 should pay one action per switch: %v < %v", actions, switches)
		}
	})
	b.Run("v2", func(b *testing.B) {
		actions, switches := run(b, cluster.HybridV2)
		b.ReportMetric(actions, "control-actions")
		b.ReportMetric(switches, "switches")
		if actions >= switches {
			b.Fatalf("v2 flag should amortise: %v >= %v", actions, switches)
		}
	})
}

// BenchmarkE9_SwitchLatency measures the OS-switch latency
// distribution over repeated forced switches and checks the paper's
// "no more than five minutes" bound.
func BenchmarkE9_SwitchLatency(b *testing.B) {
	var mean, max float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{Mode: cluster.HybridV2, Nodes: 16, InitialLinux: 16, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		target := osid.Windows
		for round := 0; round < 6; round++ {
			for n := 1; n <= 16; n++ {
				_ = c.ForceSwitch(fmt.Sprintf("enode%02d", n), target)
			}
			c.Eng.RunFor(time.Hour)
			target = target.Other()
		}
		var sum time.Duration
		var worst time.Duration
		switches := c.Rec.Switches()
		for _, sw := range switches {
			if !sw.OK {
				b.Fatalf("failed switch: %+v", sw)
			}
			sum += sw.Duration()
			if sw.Duration() > worst {
				worst = sw.Duration()
			}
		}
		if len(switches) == 0 {
			b.Fatal("no switches recorded")
		}
		mean = (sum / time.Duration(len(switches))).Seconds()
		max = worst.Seconds()
		if worst > 5*time.Minute {
			b.Fatalf("switch took %v > 5m", worst)
		}
	}
	b.ReportMetric(mean, "mean-sec")
	b.ReportMetric(max, "max-sec")
}

// alternatingTrace builds the demand pattern that separates bi-stable
// from mono-stable: Windows bursts recurring between Linux work.
func alternatingTrace(seed int64) workload.Trace {
	lin := workload.Poisson(workload.PoissonConfig{
		Seed: seed, Duration: 24 * time.Hour, JobsPerHour: 2, WindowsFrac: 0, MaxNodes: 4,
	})
	var bursts workload.Trace
	for i := 0; i < 4; i++ {
		bursts = append(bursts, workload.Burst(workload.BurstConfig{
			Start: time.Duration(i*6) * time.Hour, Jobs: 4, Gap: 2 * time.Minute,
			App: "Backburner", OS: osid.Windows, Nodes: 2, PPN: 4,
			Runtime: 45 * time.Minute, Owner: "render",
		})...)
	}
	return workload.Merge(lin, bursts)
}

// BenchmarkE10_BiVsMonoStable compares the bi-stable hybrid against
// the mono-stable one-scheduler baseline (§III-C, ref [5]) on
// recurring Windows bursts. Bi-stable keeps a warm Windows pool, so it
// reboots less and serves Windows work faster.
func BenchmarkE10_BiVsMonoStable(b *testing.B) {
	run := func(b *testing.B, mode cluster.Mode) (waitW, switches float64) {
		for i := 0; i < b.N; i++ {
			res, err := Run(Scenario{
				Name:    mode.String(),
				Cluster: ClusterConfig{Mode: mode, InitialLinux: 16, Cycle: 5 * time.Minute},
				Trace:   alternatingTrace(42),
				Horizon: 72 * time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Summary.JobsCompleted[osid.Windows] != 16 {
				b.Fatalf("%s: windows completed %v", mode, res.Summary.JobsCompleted)
			}
			waitW = res.Summary.MeanWait[osid.Windows].Seconds()
			switches = float64(res.Summary.Switches)
		}
		return waitW, switches
	}
	var biWait, biSw, monoWait, monoSw float64
	b.Run("bi-stable", func(b *testing.B) {
		biWait, biSw = run(b, cluster.HybridV2)
		b.ReportMetric(biWait, "winwait-sec")
		b.ReportMetric(biSw, "switches")
	})
	b.Run("mono-stable", func(b *testing.B) {
		monoWait, monoSw = run(b, cluster.MonoStable)
		b.ReportMetric(monoWait, "winwait-sec")
		b.ReportMetric(monoSw, "switches")
	})
	if biWait > 0 && monoWait > 0 {
		if monoSw <= biSw {
			b.Fatalf("mono-stable should reboot more: %v <= %v", monoSw, biSw)
		}
		if monoWait < biWait {
			b.Fatalf("bi-stable should serve Windows bursts no slower: bi=%v mono=%v", biWait, monoWait)
		}
	}
}

// BenchmarkE11_MatlabGACase reproduces the Eridani case study: Linux
// MD background plus a Windows MATLAB-MDCS GA burst; nodes must shift
// to Windows and the system "seamlessly adjust".
func BenchmarkE11_MatlabGACase(b *testing.B) {
	var peakWin, finalLin float64
	for i := 0; i < b.N; i++ {
		res, err := Run(Scenario{
			Name:           "matlab-ga",
			Cluster:        ClusterConfig{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute},
			Trace:          MatlabGATrace(7),
			Horizon:        48 * time.Hour,
			SampleInterval: 15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.JobsCompleted[osid.Windows] != 10 {
			b.Fatalf("GA jobs completed = %v", res.Summary.JobsCompleted)
		}
		peak := 0
		for _, s := range res.Series {
			if s.WindowsNodes > peak {
				peak = s.WindowsNodes
			}
		}
		if peak == 0 {
			b.Fatal("nodes never shifted to Windows")
		}
		peakWin = float64(peak)
		finalLin = float64(res.Series[len(res.Series)-1].LinuxNodes)
	}
	b.ReportMetric(peakWin, "peak-win-nodes")
	b.ReportMetric(finalLin, "final-linux-nodes")
}

// BenchmarkE12_MixSweep sweeps the Windows share of a phased workload
// whose wide jobs exceed a static half-cluster (the "duplication and
// poor utilisation" scenario of §I) and compares hybrid vs static
// utilisation and completions. The hybrid completes everything; the
// static split strands every wide job.
func BenchmarkE12_MixSweep(b *testing.B) {
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		frac := frac
		b.Run(fmt.Sprintf("win%.0f%%", frac*100), func(b *testing.B) {
			var hybridUtil, staticUtil, hybridDone, staticDone float64
			for i := 0; i < b.N; i++ {
				trace := workload.PhasedWideMix(workload.PhasedConfig{
					Seed: 99, Phases: 8, WindowsFrac: frac,
				})
				results, err := CompareModes(
					[]ClusterMode{cluster.HybridV2, cluster.Static},
					ClusterConfig{InitialLinux: 8, Cycle: 5 * time.Minute},
					trace, 96*time.Hour)
				if err != nil {
					b.Fatal(err)
				}
				hybridUtil = results[0].Summary.Utilisation
				staticUtil = results[1].Summary.Utilisation
				hybridDone = float64(completedAll(results[0]))
				staticDone = float64(completedAll(results[1]))
			}
			if hybridUtil < staticUtil {
				b.Fatalf("hybrid util %.3f < static %.3f", hybridUtil, staticUtil)
			}
			if hybridDone < staticDone {
				b.Fatalf("hybrid completed %v < static %v", hybridDone, staticDone)
			}
			b.ReportMetric(hybridUtil*100, "hybrid-util-pct")
			b.ReportMetric(staticUtil*100, "static-util-pct")
			b.ReportMetric(hybridDone, "hybrid-done")
			b.ReportMetric(staticDone, "static-done")
		})
	}
}

func completedAll(r Result) int {
	return r.Summary.JobsCompleted[osid.Linux] + r.Summary.JobsCompleted[osid.Windows]
}

// BenchmarkA1_CycleInterval ablates the detector cycle (the paper used
// 5–10 minutes): shorter cycles cut Windows queue wait at the price of
// more control traffic.
func BenchmarkA1_CycleInterval(b *testing.B) {
	for _, cycle := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute} {
		cycle := cycle
		b.Run(cycle.String(), func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Scenario{
					Name:    "cycle",
					Cluster: ClusterConfig{Mode: HybridV2, InitialLinux: 16, Cycle: cycle},
					Trace: BurstTrace(BurstConfig{Start: 0, Jobs: 3, Gap: time.Minute,
						App: "Opera", OS: osid.Windows, Nodes: 1, PPN: 4,
						Runtime: time.Hour, Owner: "u"}),
					Horizon: 72 * time.Hour,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary.JobsCompleted[osid.Windows] != 3 {
					b.Fatalf("completed %v", res.Summary.JobsCompleted)
				}
				wait = res.Summary.MeanWait[osid.Windows].Seconds()
			}
			b.ReportMetric(wait, "winwait-sec")
		})
	}
}

// BenchmarkA2_Policies ablates the decision rule (§V future work):
// paper FCFS vs threshold, hysteresis and fair-share.
func BenchmarkA2_Policies(b *testing.B) {
	// Policies carry state, so every iteration builds its policy fresh
	// through the registry — the same constructors every CLI flag and
	// sweep axis resolves.
	for _, f := range controller.Factories() {
		name, make := f.Name, f.New
		b.Run(name, func(b *testing.B) {
			var util, switches float64
			for i := 0; i < b.N; i++ {
				p := make()
				// All nodes start on Linux so Windows bursts wedge the
				// queue and the policies differentiate.
				res, err := Run(Scenario{
					Name:    p.Name(),
					Cluster: ClusterConfig{Mode: HybridV2, InitialLinux: 16, Cycle: 5 * time.Minute, Policy: p},
					Trace:   alternatingTrace(11),
					Horizon: 72 * time.Hour,
				})
				if err != nil {
					b.Fatal(err)
				}
				util = res.Summary.Utilisation
				switches = float64(res.Summary.Switches)
			}
			b.ReportMetric(util*100, "util-pct")
			b.ReportMetric(switches, "switches")
		})
	}
}

// BenchmarkA3_SwitchCost scales the reboot cost (the multi-boot
// solution's one "con" in §II) and watches the hybrid's utilisation
// advantage over a static split shrink as switching approaches job
// lengths, while the switch-time overhead grows.
func BenchmarkA3_SwitchCost(b *testing.B) {
	for _, scale := range []float64{0.5, 1, 4, 12} {
		scale := scale
		b.Run(fmt.Sprintf("boot-x%.1f", scale), func(b *testing.B) {
			var utilGap, overhead, meanSwitch float64
			for i := 0; i < b.N; i++ {
				lat := bootmgr.DefaultLatencyModel()
				lat.KernelLinux = time.Duration(float64(lat.KernelLinux) * scale)
				lat.KernelWindows = time.Duration(float64(lat.KernelWindows) * scale)
				lat.ServicesLinux = time.Duration(float64(lat.ServicesLinux) * scale)
				lat.ServicesWindows = time.Duration(float64(lat.ServicesWindows) * scale)
				lat.Shutdown = time.Duration(float64(lat.Shutdown) * scale)
				trace := workload.PhasedWideMix(workload.PhasedConfig{
					Seed: 5, Phases: 8, WindowsFrac: 0.5,
				})
				base := ClusterConfig{InitialLinux: 8, Cycle: 5 * time.Minute, Latency: &lat}
				results, err := CompareModes([]ClusterMode{cluster.HybridV2, cluster.Static}, base, trace, 200*time.Hour)
				if err != nil {
					b.Fatal(err)
				}
				utilGap = (results[0].Summary.Utilisation - results[1].Summary.Utilisation) * 100
				overhead = results[0].Summary.SwitchOverhead * 100
				meanSwitch = results[0].Summary.MeanSwitch.Seconds()
			}
			b.ReportMetric(utilGap, "util-gap-pct")
			b.ReportMetric(overhead, "switch-overhead-pct")
			b.ReportMetric(meanSwitch, "mean-switch-sec")
		})
	}
}
