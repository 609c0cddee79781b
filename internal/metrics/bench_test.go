package metrics

import (
	"testing"
	"time"

	"repro/internal/osid"
)

// BenchmarkRecorderJobLifecycle is the metrics layer's share of a
// city-scale run: 200,000 jobs, each submitted, started and ended on a
// moving clock with a few jobs in flight at a time, then one Summarise.
// The recorder keeps job numbers; no ID is rendered.
func BenchmarkRecorderJobLifecycle(b *testing.B) {
	const jobs, inFlight = 200_000, 64
	b.ReportAllocs()
	for b.Loop() {
		var now time.Duration
		r := NewRecorder(func() time.Duration { return now }, 40_000)
		r.Reserve(jobs)
		handles := make([]int, inFlight)
		for i := range jobs {
			os := osid.Linux
			if i%3 == 0 {
				os = osid.Windows
			}
			now += time.Second
			if i >= inFlight {
				r.JobEnded(handles[i%inFlight], true)
			}
			h := r.JobSubmitted(i+1, os, "app", 4)
			r.JobStarted(h)
			handles[i%inFlight] = h
		}
		now += time.Hour
		if s := r.Summarise(10_000); s.JobsSubmitted[osid.Linux]+s.JobsSubmitted[osid.Windows] != jobs {
			b.Fatalf("summary = %+v", s)
		}
	}
}
