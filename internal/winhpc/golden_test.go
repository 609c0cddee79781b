package winhpc

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

// TestHeadNodeTextGolden pins the HPC Pack shell views — job list,
// node list and the finished-job report — over a scripted 16-node
// cluster: a node-exclusive job requeued by a node loss, jobs that
// fail on the same loss, a short switch job, cancellations of a
// running and of a queued job, and priority ordering. Regenerate with
// go test ./internal/winhpc -run HeadNodeTextGolden -update.
func TestHeadNodeTextGolden(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "WINHEAD")
	for i := 1; i <= 16; i++ {
		if _, err := s.AddNode(fmt.Sprintf("ENODE%02d", i), 4, true); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	submit := func(spec JobSpec) *Job {
		t.Helper()
		j, err := s.SubmitJob(spec)
		must(err)
		return j
	}

	render := submit(JobSpec{Name: "render-frames", Owner: "HPC\\render", Unit: UnitNode, Count: 2,
		Runtime: 3 * time.Hour, Rerun: true})
	submit(JobSpec{Name: "matlab-sweep", Owner: "HPC\\dhaupt", Unit: UnitCore, Count: 6,
		Runtime: time.Hour, Priority: PriorityAboveNormal})
	submit(JobSpec{Name: "release_1_node", Owner: "HPC\\dualboot", Unit: UnitNode, Count: 1,
		Runtime: 10 * time.Second})
	opera := submit(JobSpec{Name: "opera-electromagnetics", Owner: "HPC\\vholmes", Unit: UnitCore, Count: 3,
		Runtime: 3 * time.Hour})
	wide := submit(JobSpec{Name: "wide", Owner: "HPC\\sliang", Unit: UnitNode, Count: 14,
		Runtime: time.Hour})
	submit(JobSpec{Name: "low", Unit: UnitCore, Count: 1, Runtime: time.Hour, Priority: PriorityLowest})
	submit(JobSpec{Name: "urgent", Owner: "HPC\\sliang", Unit: UnitCore, Count: 2,
		Runtime: 20 * time.Minute, Priority: PriorityHighest})

	var b strings.Builder
	snapshot := func() {
		fmt.Fprintf(&b, "==== job list @ %v\n%s", eng.Now(), s.JobList())
		fmt.Fprintf(&b, "==== node list @ %v\n%s", eng.Now(), s.NodeList())
		fmt.Fprintf(&b, "==== finished @ %v\n%s", eng.Now(), s.FinishedJobReport())
	}

	eng.RunUntil(time.Second)
	snapshot()
	eng.RunUntil(20 * time.Minute)
	must(s.CancelJob(opera.ID()))
	must(s.CancelJob(wide.ID()))
	eng.RunUntil(21 * time.Minute)
	snapshot()

	// Two nodes go: one of render-frames', which requeues, and one of
	// the non-rerunnable fragile's, which fails.
	eng.RunUntil(30 * time.Minute)
	fragile := submit(JobSpec{Name: "fragile", Owner: "HPC\\render", Unit: UnitCore, Count: 16, Runtime: time.Hour})
	eng.RunUntil(31 * time.Minute)
	must(s.SetNodeOnline(s.AllocatedNodes(render)[0], false))
	must(s.SetNodeOnline(s.AllocatedNodes(fragile)[0], false))
	eng.RunUntil(32 * time.Minute)
	snapshot()
	eng.Run()
	snapshot()
	checkGolden(t, "headnode.golden", b.String())
}

// TestUnknownJobIDsRejected checks that lookups and cancellations of
// numbers the scheduler never issued fail.
func TestUnknownJobIDsRejected(t *testing.T) {
	_, s := newTestScheduler(t, 1)
	if _, err := s.SubmitJob(JobSpec{Name: "a", Runtime: time.Minute}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, -1, 2, 1 << 40} {
		if _, err := s.Job(id); err == nil {
			t.Errorf("Job(%d) succeeded", id)
		}
		if err := s.CancelJob(id); err == nil {
			t.Errorf("CancelJob(%d) succeeded", id)
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
