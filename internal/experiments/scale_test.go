package experiments

import (
	"bytes"
	"testing"

	"repro/internal/export"
	"repro/internal/sweep"
)

// TestE17MetroScaleSmoke is the CI smoke for the metro tier: the
// 2500-node grid must run clean, produce one ranked row per cell, and
// actually simulate something. Kept fast enough (a few seconds) to run
// unguarded — `go test -run E17` is the workflow's scale smoke job.
func TestE17MetroScaleSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("TestAllExperimentsRun/E17 already runs the metro grid under race; a second instrumented run buys nothing")
	}
	r, _ := ByID("E17")
	tab, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadSpec("e17_metro_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := len(g.Expand())
	if len(tab.Rows) != cells {
		t.Fatalf("E17 produced %d rows, grid has %d cells", len(tab.Rows), cells)
	}
	if tab.EventsRun == 0 {
		t.Fatal("E17 ran no simulation events")
	}
}

// TestE17SweepCSVByteIdenticalAcrossWorkers pins the metro tier's
// determinism across the worker-pool axis: the E17 grid serialised at
// -workers=8 must be byte-identical to the same sweep at -workers=1.
func TestE17SweepCSVByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("metro-scale sweep twice over is slow")
	}
	if raceEnabled {
		t.Skip("determinism property, not a concurrency one; internal/sweep holds the workers-1-vs-8 line under race on smaller grids")
	}
	g, err := loadSpec("e17_metro_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	csv := func(workers int) []byte {
		out, err := sweep.Run(sweep.Config{Grid: g, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := export.WriteSweepCSV(&buf, out.Rows()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := csv(1), csv(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("E17 CSV diverged between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
