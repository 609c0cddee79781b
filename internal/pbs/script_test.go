package pbs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

// figure4 is the paper's OS-switch job script verbatim (Figure 4): it
// books one full node, rewrites the GRUB control file, reboots, and
// sleeps so the reboot is not outrun by job exit.
const figure4 = `
#####################################
###      Job Submission Script    ###
#    Change items in section 1      #
#      to suit your job needs       #
#####################################
#     Section 1: User Parameters    #
#####################################
#
#!/bin/bash
#PBS -l nodes=1:ppn=4
#PBS -N release_1_node
#PBS -q default
#PBS -j oe
#PBS -o reboot_log.out
#PBS -r n
#
#####################################
#   Section 3: Executing Commands   #
#####################################
echo $PBS_JOBID >>/home/sliang/reboot_log/rebootjob.log #write logs
sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst windows #changes default boot OS
sudo reboot #reboot node
sleep 10 #leave 10 seconds to avoid job be finished before reboot
`

func TestParseFigure4(t *testing.T) {
	sj, err := ParseScript(figure4)
	if err != nil {
		t.Fatal(err)
	}
	req := sj.Request
	if req.Nodes != 1 || req.PPN != 4 {
		t.Errorf("nodes=%d ppn=%d, want 1:4", req.Nodes, req.PPN)
	}
	if req.Name != "release_1_node" {
		t.Errorf("name = %q", req.Name)
	}
	if req.Queue != "default" {
		t.Errorf("queue = %q", req.Queue)
	}
	if !req.JoinOE {
		t.Error("join oe not parsed")
	}
	if req.Output != "reboot_log.out" {
		t.Errorf("output = %q", req.Output)
	}
	if req.Rerun {
		t.Error("-r n parsed as rerunnable")
	}
	if len(sj.Commands) != 4 {
		t.Fatalf("commands = %d: %v", len(sj.Commands), sj.Commands)
	}
	if !strings.Contains(sj.Commands[1], "bootcontrol.pl") {
		t.Errorf("command 1 = %q", sj.Commands[1])
	}
	if !strings.HasPrefix(sj.Commands[3], "sleep 10") {
		t.Errorf("command 3 = %q", sj.Commands[3])
	}
}

func TestParseScriptDirectives(t *testing.T) {
	sj, err := ParseScript("#PBS -l nodes=2:ppn=2,walltime=01:30:00\n#PBS -p 5\n#PBS -r y\nrun\n")
	if err != nil {
		t.Fatal(err)
	}
	if sj.Request.Nodes != 2 || sj.Request.PPN != 2 {
		t.Errorf("nodes spec = %d:%d", sj.Request.Nodes, sj.Request.PPN)
	}
	if sj.Request.Walltime != 90*time.Minute {
		t.Errorf("walltime = %v", sj.Request.Walltime)
	}
	if sj.Request.Priority != 5 {
		t.Errorf("priority = %d", sj.Request.Priority)
	}
	if !sj.Request.Rerun {
		t.Error("-r y not parsed")
	}
}

func TestParseScriptBareNodes(t *testing.T) {
	sj, err := ParseScript("#PBS -l nodes=3\nx\n")
	if err != nil {
		t.Fatal(err)
	}
	if sj.Request.Nodes != 3 || sj.Request.PPN != 1 {
		t.Errorf("= %d:%d", sj.Request.Nodes, sj.Request.PPN)
	}
}

func TestParseScriptNodeProperties(t *testing.T) {
	sj, err := ParseScript("#PBS -l nodes=1:ppn=4:all\nx\n")
	if err != nil {
		t.Fatal(err)
	}
	if sj.Request.Nodes != 1 || sj.Request.PPN != 4 {
		t.Errorf("= %d:%d", sj.Request.Nodes, sj.Request.PPN)
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, src := range []string{
		"#PBS -l nodes=0\n",
		"#PBS -l nodes=x\n",
		"#PBS -l nodes=1:ppn=0\n",
		"#PBS -l walltime=xx\n",
		"#PBS -l walltime=1:2:3:4\n",
		"#PBS -l oops\n",
		"#PBS -p high\n",
		"#PBS -N\n",
	} {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) succeeded", src)
		}
	}
}

func TestParseWalltimeForms(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"01:00:00", time.Hour},
		{"00:05:30", 5*time.Minute + 30*time.Second},
		{"10:00", 10 * time.Minute},
		{"45", 45 * time.Second},
	}
	for _, c := range cases {
		got, err := parseWalltime(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseWalltime(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestUnknownDirectivesIgnored(t *testing.T) {
	if _, err := ParseScript("#PBS -M user@host\n#PBS -m abe\nrun\n"); err != nil {
		t.Fatalf("unknown directive rejected: %v", err)
	}
}

func TestQsubScriptEndToEnd(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "eridani.qgg.hud.ac.uk")
	s.AddNode("enode16", 4, true)
	var execHosts []string
	j, err := s.QsubScript(figure4, "sliang@eridani.qgg.hud.ac.uk", 10*time.Second,
		func(hosts []string) { execHosts = hosts })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != StateComplete {
		t.Fatalf("state = %v", j.State)
	}
	if len(execHosts) != 1 || execHosts[0] != "enode16" {
		t.Fatalf("exec hosts = %v", execHosts)
	}
	if s.Str(j.Name) != "release_1_node" {
		t.Fatalf("name = %q", s.Str(j.Name))
	}
	// The switch job books the whole 4-core node.
	if len(s.ExecHost(j)) != 4 {
		t.Fatalf("slots = %d, want full node", len(s.ExecHost(j)))
	}
}

func TestExecHostString(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "eridani.qgg.hud.ac.uk")
	s.AddNode("node16", 4, true)
	j, err := s.Qsub(SubmitRequest{Nodes: 1, PPN: 4, Runtime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ExecHostString(j); got != "" {
		t.Fatalf("queued job's exec_host = %q, want empty", got)
	}
	eng.RunUntil(time.Second)
	got := s.ExecHostString(j)
	want := "node16.eridani.qgg.hud.ac.uk/3+node16.eridani.qgg.hud.ac.uk/2+node16.eridani.qgg.hud.ac.uk/1+node16.eridani.qgg.hud.ac.uk/0"
	if got != want {
		t.Fatalf("exec_host =\n%s\nwant\n%s", got, want)
	}
}
