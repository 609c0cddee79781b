package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/detector"
	"repro/internal/grubcfg"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/oscar"
	"repro/internal/osid"
	"repro/internal/pbs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// E1TableI schedules one job per Table-I application on the hybrid and
// reports where each ran and whether it completed. It errors when any
// application fails to complete.
func E1TableI() (Table, error) {
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
	res, err := core.Run(core.Scenario{
		Name:    "table1",
		Cluster: cluster.Config{Mode: cluster.HybridV2, Cycle: 5 * time.Minute},
		Trace:   trace,
	})
	if err != nil {
		return Table{}, err
	}
	done := map[string]bool{}
	for _, st := range res.AppStats {
		done[st.App] = st.Completed > 0
	}
	t := Table{
		ID:        "E1",
		Title:     "Table I application catalog placement",
		Header:    []string{"application", "platform", "side-run", "completed"},
		EventsRun: res.EventsRun,
	}
	completed := 0
	for i, app := range workload.Catalog {
		mark := "no"
		if done[app.Name] {
			mark = "yes"
			completed++
		}
		t.Rows = append(t.Rows, []string{app.Name, app.Platform.String(), trace[i].OS.String(), mark})
	}
	t.Notes = fmt.Sprintf("%d/%d catalog applications completed on the hybrid", completed, len(workload.Catalog))
	if completed < len(workload.Catalog) {
		return t, fmt.Errorf("experiments: E1: %s", t.Notes)
	}
	return t, nil
}

// E2GrubArtifacts parses the Figure-2/3 GRUB files and verifies the
// default-OS flip round-trips.
func E2GrubArtifacts() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Figures 2–3 GRUB menu.lst / controlmenu.lst round-trip",
		Header: []string{"artifact", "entries", "default-boots", "re-parses"},
		Notes:  "configfile redirection from /boot GRUB to FAT controlmenu.lst, as deployed on Eridani",
	}
	redirect := grubcfg.RedirectMenu(grubcfg.DeviceRef{Disk: 0, Partition: 5}, grubcfg.ControlFileName)
	if _, err := grubcfg.Parse(redirect.Render()); err != nil {
		return t, err
	}
	cf, _ := redirect.Entries[0].ConfigFile()
	t.Rows = append(t.Rows, []string{"menu.lst (Fig 2)", "1", "configfile " + cf, "yes"})
	for _, os := range []osid.OS{osid.Linux, osid.Windows} {
		ctl, err := grubcfg.ControlMenu(grubcfg.DefaultLinuxEntry(), grubcfg.DefaultWindowsEntry(), os)
		if err != nil {
			return t, err
		}
		again, err := grubcfg.Parse(ctl.Render())
		if err != nil {
			return t, err
		}
		def, err := again.DefaultEntry()
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("controlmenu_to_%s.lst (Fig 3)", os),
			fmt.Sprintf("%d", len(again.Entries)),
			def.OS().String(), "yes",
		})
	}
	return t, nil
}

// E3SwitchJob runs the Figure-4 batch job end to end.
func E3SwitchJob() (Table, error) {
	c, err := cluster.New(cluster.Config{Mode: cluster.HybridV1, Nodes: 4, InitialLinux: 4})
	if err != nil {
		return Table{}, err
	}
	script := c.SwitchJobScript(osid.Windows)
	parsed, err := pbs.ParseScript(script)
	if err != nil {
		return Table{}, err
	}
	if n := c.OrderSwitch(osid.Linux, osid.Windows, 1); n != 1 {
		return Table{}, fmt.Errorf("switch job not submitted")
	}
	c.Eng.RunFor(time.Hour)
	sw := c.Rec.Switches()
	if len(sw) != 1 || !sw[0].OK {
		return Table{}, fmt.Errorf("experiments: E3: switch records = %+v, want one that landed", sw)
	}
	return Table{
		ID:        "E3",
		Title:     "Figure 4 PBS OS-switch batch job",
		Header:    []string{"property", "value"},
		EventsRun: c.Eng.EventsRun(),
		Rows: [][]string{
			{"request", fmt.Sprintf("nodes=%d:ppn=%d", parsed.Request.Nodes, parsed.Request.PPN)},
			{"job name", parsed.Request.Name},
			{"rerunnable", fmt.Sprintf("%v (-r n)", parsed.Request.Rerun)},
			{"script commands", fmt.Sprintf("%d (log, bootcontrol.pl, reboot, sleep 10)", len(parsed.Commands))},
			{"node switched", sw[0].Node},
			{"direction", fmt.Sprintf("%s -> %s", sw[0].From, sw[0].To)},
			{"switch latency", metrics.Dur(sw[0].Duration())},
			{"landed in target OS", fmt.Sprintf("%v", sw[0].OK)},
		},
		Notes: "full-node booking protects running jobs; reboot follows job exit",
	}, nil
}

// E4DetectorWire reproduces the three Figure-6 detector outputs.
func E4DetectorWire() (Table, error) {
	eng := simtime.NewEngine()
	s := pbs.NewServer(eng, "eridani.qgg.hud.ac.uk")
	s.AddNode("enode01", 4, true)
	det := detector.NewPBSDetector(s)
	t := Table{
		ID:     "E4",
		Title:  "Figures 5–6 detector wire format",
		Header: []string{"queue state", "wire output", "parses-back"},
		Notes:  "position 0 stuck flag, 1-4 needed CPUs, 5-67 job ID; Figure 6 outputs byte-identical",
	}
	record := func(label string) error {
		rep, err := det.Detect()
		if err != nil {
			return err
		}
		back, err := detector.Parse(rep.Encode())
		ok := err == nil && back == rep
		t.Rows = append(t.Rows, []string{label, rep.Encode(), fmt.Sprintf("%v", ok)})
		return nil
	}
	if err := record("other (idle)"); err != nil {
		return t, err
	}
	s.Qsub(pbs.SubmitRequest{Name: "sleep", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	if err := record("job running, no queuing"); err != nil {
		return t, err
	}
	s.Qdel("1.eridani.qgg.hud.ac.uk")
	s.SetNodeAvailable("enode01", false)
	s.Qsub(pbs.SubmitRequest{Name: "dlpoly", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(2 * time.Second)
	if err := record("queue stuck"); err != nil {
		return t, err
	}
	t.EventsRun = eng.EventsRun()
	return t, nil
}

// E5PBSText renders and scrapes the Figure-7/8 command output.
func E5PBSText() (Table, error) {
	eng := simtime.NewEngine()
	s := pbs.NewServer(eng, "eridani.qgg.hud.ac.uk")
	for i := 1; i <= 16; i++ {
		s.AddNode(fmt.Sprintf("enode%02d", i), 4, true)
	}
	for i := 0; i < 20; i++ {
		s.Qsub(pbs.SubmitRequest{Name: fmt.Sprintf("job%02d", i), Owner: "sliang@eridani.qgg.hud.ac.uk",
			Nodes: 1, PPN: 4, Runtime: time.Hour})
	}
	eng.RunUntil(time.Second)
	jobs, err := pbs.ParseQstatF(s.QstatF())
	if err != nil {
		return Table{}, err
	}
	nodes, err := pbs.ParsePBSNodes(s.PBSNodes())
	if err != nil {
		return Table{}, err
	}
	running, queued := 0, 0
	for _, j := range jobs {
		switch j.State {
		case pbs.StateRunning:
			running++
		case pbs.StateQueued:
			queued++
		}
	}
	free, excl := 0, 0
	for _, n := range nodes {
		switch n.State {
		case pbs.NodeFree:
			free++
		case pbs.NodeExclusive:
			excl++
		}
	}
	return Table{
		ID:        "E5",
		Title:     "Figures 7–8 qstat -f / pbsnodes text round-trip",
		Header:    []string{"artifact", "records", "detail"},
		EventsRun: eng.EventsRun(),
		Rows: [][]string{
			{"qstat -f", fmt.Sprintf("%d jobs", len(jobs)), fmt.Sprintf("R=%d Q=%d", running, queued)},
			{"pbsnodes", fmt.Sprintf("%d nodes", len(nodes)), fmt.Sprintf("free=%d job-exclusive=%d", free, excl)},
		},
		Notes: "the detector scrapes this text because Torque of the era had no API",
	}, nil
}

// E6Diskpart compares v1 (clean-based) and v2 (partition-1-only)
// Windows reimaging damage.
func E6Diskpart() (Table, error) {
	run := func(script string) (deploy.WindowsReport, error) {
		n := hardware.NewNode(hardware.NodeSpec{Index: 1})
		dp, err := deploy.ParseDiskpart(deploy.V1Diskpart)
		if err != nil {
			return deploy.WindowsReport{}, err
		}
		if _, err := deploy.DeployWindows(n, dp); err != nil {
			return deploy.WindowsReport{}, err
		}
		layout, err := deploy.ParseIdeDisk(deploy.V1IdeDisk)
		if err != nil {
			return deploy.WindowsReport{}, err
		}
		img, err := oscar.BuildImage("img", oscar.V1, layout)
		if err != nil {
			return deploy.WindowsReport{}, err
		}
		if _, err := oscar.DeployNode(n, img); err != nil {
			return deploy.WindowsReport{}, err
		}
		re, err := deploy.ParseDiskpart(script)
		if err != nil {
			return deploy.WindowsReport{}, err
		}
		return deploy.DeployWindows(n, re)
	}
	v1, err := run(deploy.V1Diskpart)
	if err != nil {
		return Table{}, err
	}
	v2, err := run(deploy.V2ReimageDiskpart)
	if err != nil {
		return Table{}, err
	}
	row := func(name string, rep deploy.WindowsReport) []string {
		return []string{name,
			fmt.Sprintf("%v", rep.Diskpart.Cleaned),
			fmt.Sprintf("%d", rep.LinuxPartitionsLost),
			fmt.Sprintf("%d", rep.FilesLost),
			fmt.Sprintf("%v", rep.GRUBDestroyed),
		}
	}
	return Table{
		ID:     "E6",
		Title:  "Figures 9–10/15 Windows reimage damage: v1 vs v2",
		Header: []string{"script", "disk-cleaned", "linux-parts-lost", "files-lost", "grub-destroyed"},
		Rows: [][]string{
			row("v1 diskpart (Fig 10)", v1),
			row("v2 reimage (Fig 15)", v2),
		},
		Notes: "both rewrite the MBR; v2 survives because boot moved to PXE — §IV-A",
	}, nil
}

// E7IdeDisk verifies the Figure-14 skip label across repeated Linux
// reimages.
func E7IdeDisk() (Table, error) {
	layout, err := deploy.ParseIdeDisk(deploy.V2IdeDisk)
	if err != nil {
		return Table{}, err
	}
	img, err := oscar.BuildImage("oscarimage", oscar.V2, layout)
	if err != nil {
		return Table{}, err
	}
	n := hardware.NewNode(hardware.NodeSpec{Index: 1})
	dp, _ := deploy.ParseDiskpart(deploy.V2InitialDiskpart)
	if _, err := deploy.DeployWindows(n, dp); err != nil {
		return Table{}, err
	}
	win, _ := n.Disk.Partition(1)
	win.WriteFile("/Users/research/results.dat", []byte("precious"))
	t := Table{
		ID:     "E7",
		Title:  "Figure 14 ide.disk with skip label",
		Header: []string{"linux reimage pass", "windows-preserved", "windows-user-data", "manual-steps"},
		Notes:  "v1 required 4 manual patches per image rebuild (§III-C); v2 zero",
	}
	for pass := 1; pass <= 3; pass++ {
		rep, err := oscar.DeployNode(n, img)
		if err != nil {
			return t, err
		}
		win, _ := n.Disk.Partition(1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pass),
			fmt.Sprintf("%v", !rep.WindowsLost),
			fmt.Sprintf("%v", win.HasFile("/Users/research/results.dat")),
			fmt.Sprintf("%d", rep.ManualSteps),
		})
	}
	return t, nil
}
