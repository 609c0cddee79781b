package hybridcluster

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkExperiments regenerates every table and figure of the
// paper's evaluation: one sub-benchmark per entry of experiments.All
// (EXPERIMENTS.md records paper-vs-measured), each running the whole
// experiment per iteration and reporting its simulation wakeups as
// events/op. `go test -bench=. -benchmem` reproduces the evaluation
// from the same code that cmd/benchtab prints as text tables; the
// paper's claims themselves are asserted by the tier-1 tests in
// internal/experiments.
func BenchmarkExperiments(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			b.ReportAllocs()
			var tab experiments.Table
			for b.Loop() {
				var err error
				if tab, err = r.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tab.EventsRun), "events/op")
		})
	}
}
