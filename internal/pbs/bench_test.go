package pbs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simtime"
)

// Micro-benchmarks for the Torque face: text rendering and scraping at
// cluster scale. Scheduling throughput is measured on the shared core,
// by internal/sched's BenchmarkScheduler.

func BenchmarkQstatFRender(b *testing.B) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "bench.example")
	for n := 1; n <= 16; n++ {
		s.AddNode(fmt.Sprintf("n%02d", n), 4, true)
	}
	for j := 0; j < 64; j++ {
		s.Qsub(SubmitRequest{Name: "j", Nodes: 1, PPN: 4, Runtime: time.Hour})
	}
	eng.RunUntil(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.QstatF()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkParseQstatF(b *testing.B) {
	eng := simtime.NewEngine()
	s := NewServer(eng, "bench.example")
	for n := 1; n <= 16; n++ {
		s.AddNode(fmt.Sprintf("n%02d", n), 4, true)
	}
	for j := 0; j < 64; j++ {
		s.Qsub(SubmitRequest{Name: "j", Nodes: 1, PPN: 4, Runtime: time.Hour})
	}
	eng.RunUntil(time.Second)
	text := s.QstatF()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := ParseQstatF(text)
		if err != nil || len(jobs) != 64 {
			b.Fatalf("%d jobs, %v", len(jobs), err)
		}
	}
}

func BenchmarkParseScriptFigure4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseScript(figure4); err != nil {
			b.Fatal(err)
		}
	}
}
