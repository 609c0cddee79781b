package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/osid"
)

func TestWriteSeriesCSV(t *testing.T) {
	series := []cluster.Snapshot{
		{At: time.Hour, LinuxNodes: 14, WindowsNodes: 2, Switching: 0, WindowsQueued: 3},
		{At: 2 * time.Hour, LinuxNodes: 12, WindowsNodes: 2, Switching: 2},
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("rows = %d", len(records))
	}
	if records[0][0] != "t_sec" {
		t.Fatalf("header = %v", records[0])
	}
	if records[1][0] != "3600" || records[1][1] != "14" || records[1][2] != "2" {
		t.Fatalf("row 1 = %v", records[1])
	}
	if records[2][3] != "2" {
		t.Fatalf("switching cell = %v", records[2])
	}
}

func TestWriteSeriesCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("expected header only, got %d lines", len(lines))
	}
}

func TestWriteSummaryJSON(t *testing.T) {
	s := metrics.Summary{
		Elapsed:       2 * time.Hour,
		TotalCores:    64,
		Utilisation:   0.5,
		UtilisationOS: map[osid.OS]float64{osid.Linux: 0.4, osid.Windows: 0.1},
		MeanWait:      map[osid.OS]time.Duration{osid.Windows: 5 * time.Minute},
		MaxWait:       map[osid.OS]time.Duration{},
		JobsSubmitted: map[osid.OS]int{osid.Linux: 10},
		JobsCompleted: map[osid.OS]int{osid.Linux: 9},
		Switches:      3,
		SwitchesOK:    3,
		MeanSwitch:    4 * time.Minute,
	}
	var buf bytes.Buffer
	if err := WriteSummaryJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["utilisation"] != 0.5 {
		t.Fatalf("utilisation = %v", decoded["utilisation"])
	}
	if decoded["total_cores"] != float64(64) {
		t.Fatalf("cores = %v", decoded["total_cores"])
	}
	waits := decoded["mean_wait_sec"].(map[string]any)
	if waits["windows"] != float64(300) {
		t.Fatalf("windows wait = %v", waits["windows"])
	}
	if decoded["mean_switch_sec"] != float64(240) {
		t.Fatalf("switch = %v", decoded["mean_switch_sec"])
	}
}

// axisRow builds the registry-shaped axis fields the sweep package
// emits, so the exporter tests exercise the same schema.
func axisRow(cell, mode, policy, sched string, nodes int, trace string, fail float64, topo, routing string, seed int64) []Field {
	return []Field{
		{Key: "cell", Text: cell, JSON: cell},
		{Key: "mode", Text: mode, JSON: mode},
		{Key: "policy", Text: policy, JSON: policy},
		{Key: "sched_policy", Text: sched, JSON: sched},
		{Key: "nodes", Text: "16", JSON: nodes},
		{Key: "trace", Text: trace, JSON: trace},
		{Key: "failure_rate", Text: "0.1", JSON: fail},
		{Key: "topology", Text: topo, JSON: topo},
		{Key: "routing", Text: routing, JSON: routing, OmitEmptyJSON: true},
		{Key: "seed", Text: "42", JSON: seed},
	}
}

func TestWriteSweepCSV(t *testing.T) {
	a := axisRow("hybrid-v2/fcfs/n16/poisson-4jph-w30%/f0", "hybrid-v2", "fcfs", "backfill",
		16, "poisson-4jph-w30%", 0, "single", "", 42)
	a[6].Text = "0"
	b := axisRow("static-split/fcfs/n16/poisson-4jph-w30%/f0.1", "static-split", "fcfs", "fcfs",
		16, "poisson-4jph-w30%", 0.1, "single", "", 43)
	b[9].Text = "43"
	rows := []SweepRow{
		{Axes: a, Utilisation: 0.4251, MeanWaitWindowsSec: 300, Switches: 6, SwitchesOK: 6, Thrash: 2,
			JobsSubmitted: 96, JobsCompleted: 96, MakespanSec: 90000},
		{Axes: b, Err: "boom"},
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("rows = %d", len(records))
	}
	if records[0][0] != "cell" || records[0][3] != "sched_policy" || records[0][6] != "failure_rate" || records[0][7] != "topology" || records[0][8] != "routing" {
		t.Fatalf("header = %v", records[0])
	}
	if records[1][3] != "backfill" || records[2][3] != "fcfs" {
		t.Fatalf("sched_policy cells = %q/%q", records[1][3], records[2][3])
	}
	if records[1][10] != "0.425100" { // fixed-width float formatting
		t.Fatalf("utilisation cell = %q", records[1][10])
	}
	if records[0][15] != "thrash" || records[1][15] != "2" {
		t.Fatalf("thrash column = %q/%q", records[0][15], records[1][15])
	}
	if records[2][6] != "0.1" || records[2][23] != "boom" {
		t.Fatalf("failed-cell row = %v", records[2])
	}

	// Byte-for-byte reproducible on identical input.
	var again bytes.Buffer
	if err := WriteSweepCSV(&again, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("sweep CSV not reproducible")
	}
}

func TestWriteSweepJSON(t *testing.T) {
	rows := []SweepRow{{
		Axes:        axisRow("c", "hybrid-v2", "fcfs", "fcfs", 16, "poisson-4jph-w30%", 0, "single", "", 42),
		Utilisation: 0.5, JobsCompleted: 12,
	}}
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0]["utilisation"] != 0.5 {
		t.Fatalf("decoded = %v", decoded)
	}
	if decoded[0]["mode"] != "hybrid-v2" || decoded[0]["nodes"] != float64(16) {
		t.Fatalf("axis fields = %v", decoded[0])
	}
	if _, present := decoded[0]["err"]; present {
		t.Fatal("empty err serialised")
	}
	// The routing axis omits its JSON field when empty, as the struct
	// tag `omitempty` used to.
	if _, present := decoded[0]["routing"]; present {
		t.Fatal("empty routing serialised")
	}
}

// WriteSweepCSV without rows cannot know the axis schema; it must
// write nothing rather than invent a header.
func TestWriteSweepCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %q for zero rows", buf.String())
	}
}

func TestWriteJobsCSV(t *testing.T) {
	jobs := []metrics.JobRecord{
		{ID: "1.e", App: "DL_POLY", Lifecycle: metrics.Lifecycle{OS: osid.Linux, CPUs: 8,
			Submitted: 0, Started: time.Minute, Ended: time.Hour, Completed: true}},
		{ID: "W2", App: "Opera", Lifecycle: metrics.Lifecycle{OS: osid.Windows, CPUs: 4,
			Submitted: time.Minute, Completed: false}},
	}
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("rows = %d", len(records))
	}
	if records[1][7] != "60" { // wait_sec
		t.Fatalf("wait = %v", records[1])
	}
	if records[2][8] != "false" {
		t.Fatalf("completed = %v", records[2])
	}
}

func TestWriteSwitchesCSV(t *testing.T) {
	switches := []metrics.SwitchRecord{
		{Node: "enode01", From: osid.Linux, To: osid.Windows,
			Started: time.Hour, Finished: time.Hour + 4*time.Minute, OK: true},
	}
	var buf bytes.Buffer
	if err := WriteSwitchesCSV(&buf, switches); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("rows = %d", len(records))
	}
	row := records[1]
	if row[0] != "enode01" || row[1] != "linux" || row[2] != "windows" || row[5] != "240" || row[6] != "true" {
		t.Fatalf("row = %v", row)
	}
}

// Rows off the first row's axis schema must error instead of writing
// ragged CSV (encoding/csv does not enforce record lengths).
func TestWriteSweepCSVRejectsMismatchedSchemas(t *testing.T) {
	full := SweepRow{Axes: axisRow("a", "hybrid-v2", "fcfs", "fcfs", 16, "t", 0, "single", "", 1)}
	short := SweepRow{Axes: full.Axes[:len(full.Axes)-1]}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, []SweepRow{full, short}); err == nil {
		t.Fatal("mismatched axis counts serialised without error")
	}
	renamed := SweepRow{Axes: append([]Field(nil), full.Axes...)}
	renamed.Axes[3] = Field{Key: "discipline", Text: "fcfs"}
	if err := WriteSweepCSV(&buf, []SweepRow{full, renamed}); err == nil {
		t.Fatal("mismatched axis keys serialised without error")
	}
}
