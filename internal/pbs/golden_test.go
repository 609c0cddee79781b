package pbs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// headNodeScript is the Figure-4 switch job: -j oe, -o, -r n.
const headNodeScript = `#!/bin/bash
#PBS -l nodes=1:ppn=4
#PBS -N release_1_node
#PBS -q default
#PBS -j oe
#PBS -o reboot_log.out
#PBS -r n
sudo reboot
`

// TestHeadNodeTextGolden pins every text rendering the head node
// offers — qstat -f, qstat -f <id> of live and completed jobs, qstat
// and pbsnodes — over a scripted E5-sized server: 16 four-core eridani
// nodes, a held job, a -j oe -o script job, a walltime kill, a qdel and
// a node loss that requeues a rerunnable job. Regenerate with
// go test ./internal/pbs -run HeadNodeTextGolden -update.
func TestHeadNodeTextGolden(t *testing.T) {
	const domain = "eridani.qgg.hud.ac.uk"
	eng := simtime.NewEngine()
	s := NewServer(eng, domain)
	for i := 1; i <= 16; i++ {
		if _, err := s.AddNode(fmt.Sprintf("enode%02d", i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	id := func(n int) string { return fmt.Sprintf("%d.%s", n, domain) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	qsub := func(r SubmitRequest) {
		t.Helper()
		_, err := s.Qsub(r)
		must(err)
	}

	qsub(SubmitRequest{Name: "dlpoly", Owner: "sliang@" + domain, Nodes: 2, PPN: 4,
		Runtime: 3 * time.Hour, Rerun: true}) // 1: requeued by the node loss
	qsub(SubmitRequest{Name: "held", Owner: "dhaupt@" + domain, Nodes: 1, PPN: 4, Runtime: time.Hour})
	must(s.Qhold(id(2)))
	_, err := s.QsubScript(headNodeScript, "dualboot@"+domain, 10*time.Second, nil) // 3
	must(err)
	qsub(SubmitRequest{Name: "gulp", Owner: "sliang@" + domain, Nodes: 1, PPN: 2,
		Runtime: time.Hour, Walltime: 30 * time.Minute}) // 4: killed at its walltime
	qsub(SubmitRequest{Name: "lammps", Owner: "vholmes@" + domain, Nodes: 4, PPN: 4,
		Runtime: 2 * time.Hour, Priority: 5}) // 5: deleted while running
	qsub(SubmitRequest{Name: "opera-prep", Owner: "dhaupt@" + domain, Nodes: 1, PPN: 1,
		Runtime: 5 * time.Minute})
	qsub(SubmitRequest{Name: "wide", Owner: "vholmes@" + domain, Nodes: 12, PPN: 4,
		Runtime: time.Hour}) // 7: blocks the FCFS queue
	qsub(SubmitRequest{Name: "tail", Owner: "sliang@" + domain, Nodes: 1, PPN: 1,
		Runtime: 10 * time.Minute, Walltime: 20 * time.Minute})

	var b strings.Builder
	section := func(title, text string) {
		fmt.Fprintf(&b, "==== %s @ %v\n%s", title, eng.Now(), text)
	}
	job := func(n int) {
		t.Helper()
		text, err := s.QstatFJob(id(n))
		must(err)
		section("qstat -f "+id(n), text)
	}
	snapshot := func() {
		section("qstat -f", s.QstatF())
		section("qstat", s.QstatSummary())
		section("pbsnodes", s.PBSNodes())
	}

	eng.RunUntil(time.Second)
	snapshot()
	eng.RunUntil(15 * time.Second)
	job(3) // completed: exec_host survives
	eng.RunUntil(20 * time.Minute)
	must(s.Qdel(id(5)))
	eng.RunUntil(31 * time.Minute)
	snapshot()
	job(4)
	job(5)

	// Lose the first node of job 1's exec_host: the rerunnable job
	// requeues.
	text, err := s.QstatFJob(id(1))
	must(err)
	recs, err := ParseQstatF(text)
	must(err)
	host, _, _ := strings.Cut(recs[0].ExecHost, "/")
	host = strings.TrimSuffix(host, "."+domain)
	must(s.SetNodeAvailable(host, false))
	job(1) // requeued, before the next pass restarts it
	eng.RunUntil(41 * time.Minute)
	snapshot()
	job(1)

	must(s.Qrls(id(2)))
	eng.Run()
	snapshot()
	for n := 1; n <= 8; n++ {
		job(n)
	}
	checkGolden(t, "headnode.golden", b.String())
}

// TestForeignJobIDsRejected checks that a lookup names a job only by
// its own server's suffix and a submitted sequence number.
func TestForeignJobIDsRejected(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.Qsub(SubmitRequest{Name: "a", Runtime: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job("1.eridani.qgg.hud.ac.uk"); err != nil {
		t.Fatalf("own job: %v", err)
	}
	for _, id := range []string{
		"7.other.domain", "1.other.domain", "1.eridani.qgg.hud.ac.uk.x", "1.eridani",
		"2.eridani.qgg.hud.ac.uk", "0.eridani.qgg.hud.ac.uk", "-1.eridani.qgg.hud.ac.uk",
		"01.eridani.qgg.hud.ac.uk", "+1.eridani.qgg.hud.ac.uk", "1", "", ".eridani.qgg.hud.ac.uk",
		"99999999999999999999999.eridani.qgg.hud.ac.uk",
	} {
		if j, err := s.Job(id); err == nil {
			t.Errorf("Job(%q) = job %d, want an error", id, j.SeqNo())
		}
		if _, err := s.QstatFJob(id); err == nil {
			t.Errorf("QstatFJob(%q) rendered a job", id)
		}
	}
}

// checkGolden compares got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
