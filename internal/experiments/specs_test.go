package experiments

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/export"
	"repro/internal/sweep"
	"repro/specs"
)

// Each committed document runs once per test binary: the runners'
// table checks (TestAllExperimentsRun, the claim tests) and the golden
// diff below read the same outcome, so the city tier (E18) and the
// metro tiers (E17, E20) are simulated once, not twice.
func init() {
	run := runSpec
	var mu sync.Mutex
	done := map[string]*sweep.Outcome{}
	runSpec = func(file string) (*sweep.Outcome, error) {
		mu.Lock()
		defer mu.Unlock()
		if out, ok := done[file]; ok {
			return out, nil
		}
		out, err := run(file)
		if err == nil {
			done[file] = out
		}
		return out, err
	}
}

// Replaying a committed spec document must reproduce its committed
// golden CSV — the same diff CI's spec-replay job performs at
// workers=1 — guarded behind -short because it reruns every recorded
// sweep. The replay is the run the runners share (see init above), at
// the default worker count, which the determinism contract says gives
// the same bytes (TestE17SweepCSVByteIdenticalAcrossWorkers pins it).
func TestSpecReplayMatchesGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("replaying every recorded sweep is slow")
	}
	files, err := fs.Glob(specs.FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no spec documents embedded")
	}
	for _, file := range files {
		switch file {
		case "e17_metro_scale.json", "e18_city_scale.json", "e20_metro_policies.json":
			if raceEnabled {
				// The scale tiers replay at workers=1 here — serial, so
				// the detector sees no concurrency — and are
				// minutes-slow under instrumentation; the regular pass
				// and CI's spec-replay job still diff them against
				// their goldens.
				continue
			}
		}
		base := strings.TrimSuffix(file, ".json")
		golden, err := os.ReadFile(filepath.Join("..", "..", "specs", "golden", base+".csv"))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `qsim sweep -f specs/%s -workers 1 -csv ...`)", file, err, file)
		}
		out, err := runSpec(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var buf bytes.Buffer
		if err := export.WriteSweepCSV(&buf, out.Rows()); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: replay diverged from specs/golden/%s.csv", file, base)
		}
	}
}
