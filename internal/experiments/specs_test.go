package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/export"
	"repro/internal/sweep"
)

// The committed spec documents under specs/ are the reproducibility
// artifacts for E12–E17, E19 and E20. They must stay byte-identical to what the
// in-code grids serialise to (so `benchtab -specs specs` is a no-op on
// a clean tree), and loading them back must yield the exact cell set
// the experiments run.
func TestCommittedSpecDocumentsMatchGrids(t *testing.T) {
	files, err := SpecFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Fatalf("expected one spec document per recorded sweep experiment, got %d", len(files))
	}
	for _, sf := range files {
		path := filepath.Join("..", "..", "specs", sf.File)
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `go run ./cmd/benchtab -specs specs`)", sf.File, err)
		}
		want, err := sweep.MarshalSpec(sf.Spec)
		if err != nil {
			t.Fatalf("%s: %v", sf.File, err)
		}
		if !bytes.Equal(committed, want) {
			t.Errorf("%s drifted from the in-code grid; regenerate with `go run ./cmd/benchtab -specs specs`", sf.File)
			continue
		}
		loaded, err := sweep.LoadSpec(bytes.NewReader(committed))
		if err != nil {
			t.Fatalf("%s: %v", sf.File, err)
		}
		if len(loaded.Warnings) != 0 {
			t.Errorf("%s: committed document uses deprecated keys: %v", sf.File, loaded.Warnings)
		}
		wantCells := sf.Spec.Grid.Expand()
		gotCells := loaded.Grid.Expand()
		if len(wantCells) != len(gotCells) {
			t.Fatalf("%s: document expands to %d cells, grid to %d", sf.File, len(gotCells), len(wantCells))
		}
		for i := range wantCells {
			if wantCells[i].Name() != gotCells[i].Name() ||
				wantCells[i].Seed != gotCells[i].Seed ||
				wantCells[i].TraceSeed != gotCells[i].TraceSeed {
				t.Fatalf("%s: cell %d diverges: %s vs %s", sf.File, i, wantCells[i].Name(), gotCells[i].Name())
			}
		}
	}
	// And every committed document has a backing grid — no orphans.
	entries, err := os.ReadDir(filepath.Join("..", "..", "specs"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, sf := range files {
		known[sf.File] = true
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if !known[e.Name()] {
			t.Errorf("specs/%s has no backing grid in SpecFiles", e.Name())
		}
	}
}

// Replaying a committed spec document must reproduce its committed
// golden CSV — the same diff CI's spec-replay job performs, at
// workers=1, guarded behind -short because it reruns every recorded
// sweep.
func TestSpecReplayMatchesGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("replaying every recorded sweep is slow")
	}
	files, err := SpecFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range files {
		if raceEnabled && (sf.File == "e17_metro_scale.json" || sf.File == "e20_metro_policies.json") {
			// The metro grids replay at workers=1 here — serial, so the
			// detector sees no concurrency — and are minutes-slow under
			// instrumentation; the regular pass and CI's spec-replay job
			// still diff them against their goldens.
			continue
		}
		base := sf.File[:len(sf.File)-len(".json")]
		golden, err := os.ReadFile(filepath.Join("..", "..", "specs", "golden", base+".csv"))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `qsim sweep -f specs/%s -workers 1 -csv ...`)", sf.File, err, sf.File)
		}
		out, err := sweep.Run(sweep.Config{Grid: sf.Spec.Grid, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", sf.File, err)
		}
		var buf bytes.Buffer
		if err := export.WriteSweepCSV(&buf, out.Rows()); err != nil {
			t.Fatalf("%s: %v", sf.File, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: replay diverged from specs/golden/%s.csv", sf.File, base)
		}
	}
}
