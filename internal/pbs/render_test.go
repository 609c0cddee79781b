package pbs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

func TestQstatFShape(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.Qsub(SubmitRequest{Name: "release_1_node", Owner: "sliang@eridani.qgg.hud.ac.uk",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	out := s.QstatF()
	for _, want := range []string{
		"Job Id: 1.eridani.qgg.hud.ac.uk",
		"    Job_Name = release_1_node",
		"    Job_Owner = sliang@eridani.qgg.hud.ac.uk",
		"    job_state = R",
		"    queue = default",
		"    server = eridani.qgg.hud.ac.uk",
		"    exec_host = enode01.eridani.qgg.hud.ac.uk/3",
		"    Priority = 0",
		"    qtime = ",
		"    Resource_List.nodes = 1:ppn=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("qstat -f missing %q:\n%s", want, out)
		}
	}
}

func TestQstatFOmitsCompleted(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.Qsub(SubmitRequest{Name: "quick", Runtime: time.Second})
	eng.Run()
	if out := s.QstatF(); strings.Contains(out, "quick") {
		t.Fatalf("completed job still in qstat:\n%s", out)
	}
}

func TestQstatFJobSingle(t *testing.T) {
	eng, s := newTestServer(t, 1)
	j, _ := s.Qsub(SubmitRequest{Name: "one", Runtime: time.Second})
	out, err := s.QstatFJob(s.ID(j))
	if err != nil || !strings.Contains(out, "Job Id: "+s.ID(j)) {
		t.Fatalf("QstatFJob = %q, %v", out, err)
	}
	if _, err := s.QstatFJob("nope"); err == nil {
		t.Fatal("unknown job rendered")
	}
	eng.Run()
}

func TestPBSNodesShape(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Qsub(SubmitRequest{Name: "j", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Second)
	out := s.PBSNodes()
	for _, want := range []string{
		"enode01.eridani.qgg.hud.ac.uk\n",
		"     state = job-exclusive",
		"     state = free",
		"     np = 4",
		"     properties = all",
		"     ntype = cluster",
		"     jobs = 0/1.eridani.qgg.hud.ac.uk",
		"opsys=linux",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pbsnodes missing %q:\n%s", want, out)
		}
	}
}

func TestQstatRoundTrip(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Qsub(SubmitRequest{Name: "running", Owner: "a@b", Nodes: 2, PPN: 4, Runtime: time.Hour})
	s.Qsub(SubmitRequest{Name: "waiting", Owner: "c@d", Nodes: 1, PPN: 2, Runtime: time.Hour})
	eng.RunUntil(time.Second)

	jobs, err := ParseQstatF(s.QstatF())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("parsed %d jobs", len(jobs))
	}
	r, w := jobs[0], jobs[1]
	if r.Name != "running" || r.State != StateRunning || r.CPUs() != 8 {
		t.Fatalf("r = %+v", r)
	}
	if w.Name != "waiting" || w.State != StateQueued || w.CPUs() != 2 {
		t.Fatalf("w = %+v", w)
	}
	if r.ExecHost == "" || !strings.Contains(r.ExecHost, "+") {
		t.Fatalf("exec host = %q", r.ExecHost)
	}
	if w.Owner != "c@d" || w.Queue != "default" {
		t.Fatalf("w = %+v", w)
	}
}

func TestPBSNodesRoundTrip(t *testing.T) {
	eng, s := newTestServer(t, 3)
	s.SetNodeAvailable(nodeName(3), false)
	s.Qsub(SubmitRequest{Name: "j", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Second)

	nodes, err := ParsePBSNodes(s.PBSNodes())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("parsed %d nodes", len(nodes))
	}
	if nodes[0].State != NodeExclusive || len(nodes[0].Jobs) != 4 {
		t.Fatalf("n0 = %+v", nodes[0])
	}
	if nodes[1].State != NodeFree || nodes[1].NP != 4 {
		t.Fatalf("n1 = %+v", nodes[1])
	}
	if nodes[2].State != NodeDown {
		t.Fatalf("n2 = %+v", nodes[2])
	}
}

func TestParseQstatFFigure8Shape(t *testing.T) {
	// A hand-written record in the exact shape of the paper's Figure 8.
	text := `Job Id: 1185.eridani.qgg.hud.ac.uk
    Job_Name = release_1_node
    Job_Owner = sliang@eridani.qgg.hud.ac.uk
    job_state = R
    queue = default
    server = eridani.qgg.hud.ac.uk
    exec_host = node16.eridani.qgg.hud.ac.uk/3+node16.eridani.qgg.hud.ac.uk/2+node16.eridani.qgg.hud.ac.uk/1+node16.eridani.qgg.hud.ac.uk/0
    Priority = 0
    qtime = Fri Apr 16 17:55:40 2010
    Resource_List.nodes = 1:ppn=4
    Variable_List = PBS_O_HOME=/home/sliang,PBS_O_LANG=en_US.UTF-8,
`
	jobs, err := ParseQstatF(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.ID != "1185.eridani.qgg.hud.ac.uk" {
		t.Errorf("id = %q", j.ID)
	}
	if j.Name != "release_1_node" || j.State != StateRunning {
		t.Errorf("j = %+v", j)
	}
	if j.Nodes != 1 || j.PPN != 4 || j.CPUs() != 4 {
		t.Errorf("resources = %d:%d", j.Nodes, j.PPN)
	}
}

func TestParsePBSNodesFigure7Shape(t *testing.T) {
	text := `enode01.eridani.qgg.hud.ac.uk
     state = free
     np = 4
     properties = all
     ntype = cluster
     status = opsys=linux, uname=Linux enode01.eridani.qgg.hud.ac.uk 2.6.18, ncpus=4, state=free
`
	nodes, err := ParsePBSNodes(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	n := nodes[0]
	if n.Name != "enode01.eridani.qgg.hud.ac.uk" || n.State != NodeFree || n.NP != 4 {
		t.Fatalf("n = %+v", n)
	}
}

func TestParseQstatFErrors(t *testing.T) {
	if _, err := ParseQstatF("    job_state = R\n"); err == nil {
		t.Fatal("attribute outside record accepted")
	}
}

func TestParsePBSNodesErrors(t *testing.T) {
	if _, err := ParsePBSNodes("     state = free\n"); err == nil {
		t.Fatal("attribute before node accepted")
	}
	if _, err := ParsePBSNodes("n1\n     np = four\n"); err == nil {
		t.Fatal("bad np accepted")
	}
}

func TestParseEmptyOutputs(t *testing.T) {
	jobs, err := ParseQstatF("")
	if err != nil || len(jobs) != 0 {
		t.Fatalf("empty qstat: %v, %v", jobs, err)
	}
	nodes, err := ParsePBSNodes("")
	if err != nil || len(nodes) != 0 {
		t.Fatalf("empty pbsnodes: %v, %v", nodes, err)
	}
}

// Property: render→parse round-trips job names, states and CPU
// requests for arbitrary job mixes.
func TestQuickQstatRoundTrip(t *testing.T) {
	f := func(ppns []uint8) bool {
		eng := simtime.NewEngine()
		s := NewServer(eng, "h.dom.example")
		s.AddNode("n1", 64, true)
		want := 0
		for i, p := range ppns {
			if i >= 10 {
				break
			}
			ppn := int(p%8) + 1
			s.Qsub(SubmitRequest{Name: "job", Nodes: 1, PPN: ppn, Runtime: time.Hour})
			want++
		}
		eng.RunUntil(time.Second)
		jobs, err := ParseQstatF(s.QstatF())
		if err != nil || len(jobs) != want {
			return false
		}
		orig := s.Jobs()
		for i, pj := range jobs {
			if pj.CPUs() != orig[i].CPUs() || pj.State != orig[i].State {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStampFormat(t *testing.T) {
	_, s := newTestServer(t, 1)
	// Base date is Fri Apr 16 2010 08:00 UTC; ANSIC format.
	got := s.stamp(0)
	if got != "Fri Apr 16 08:00:00 2010" {
		t.Fatalf("stamp(0) = %q", got)
	}
	got = s.stamp(9*time.Hour + 55*time.Minute + 40*time.Second)
	if got != "Fri Apr 16 17:55:40 2010" {
		t.Fatalf("stamp = %q", got)
	}
}
