package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/sweep"
)

// testSpec is a deliberately tiny two-cell sweep so the end-to-end
// tests finish in well under a second.
const testSpec = `{
  "spec_version": 1,
  "name": "service test sweep",
  "grid": {
    "modes": "hybrid-v1",
    "rates": "2,4",
    "winfracs": "0.3",
    "hours": "8",
    "traces": "poisson"
  },
  "seeds": {
    "base": 7
  },
  "cycle": "5m0s",
  "horizon": "24h0m0s"
}
`

// startServer builds and starts a service on a fresh port over the
// given state dir, shutting it down with the test.
func startServer(t *testing.T, dir string, workers int) *Server {
	t.Helper()
	srv, err := New(Config{Addr: "127.0.0.1:0", StateDir: dir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Kill() })
	return srv
}

// directCSV renders the spec's sweep table the way the CLI would:
// sweep.Run at workers=1, CSV export.
func directCSV(t *testing.T, doc string) []byte {
	t.Helper()
	sp, err := sweep.LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sweep.Run(sweep.Config{Grid: sp.Grid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := export.WriteSweepCSV(&buf, out.Rows()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServiceEndToEnd(t *testing.T) {
	srv := startServer(t, t.TempDir(), 3)
	c := &Client{Base: srv.Addr()}

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Cells != 2 {
		t.Fatalf("submitted job = %+v, want 2 cells", job)
	}
	job, err = c.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || job.CellsDone != 2 || job.Cached {
		t.Fatalf("after wait job = %+v, want done 2/2 uncached", job)
	}

	got, err := c.Result(job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if want := directCSV(t, testSpec); !bytes.Equal(got, want) {
		t.Errorf("served CSV differs from direct sweep run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	js, err := c.Result(job.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(js, &rows); err != nil {
		t.Fatalf("result JSON does not parse: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("result JSON has %d rows, want 2", len(rows))
	}
}

// TestSubmitDedupesByCanonicalHash resubmits the same spec with
// different JSON formatting and a reordered grid: the content address
// is taken over the canonical bytes, so the server returns the
// existing job instead of creating a second one.
func TestSubmitDedupesByCanonicalHash(t *testing.T) {
	srv := startServer(t, t.TempDir(), 2)
	c := &Client{Base: srv.Addr()}

	first, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(first.ID); err != nil {
		t.Fatal(err)
	}

	reformatted := `{"name":"service test sweep","cycle":"5m0s","horizon":"24h0m0s",` +
		`"seeds":{"base":7},` +
		`"grid":{"traces":"poisson","hours":"8","winfracs":"0.3","rates":"2,4","modes":"hybrid-v1"},` +
		`"spec_version":1}`
	second, err := c.Submit(strings.NewReader(reformatted))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("reformatted spec created a new job %s, want existing %s", second.ID, first.ID)
	}
	if second.State != StateDone {
		t.Fatalf("deduped job state = %s, want done", second.State)
	}
}

// TestCacheServesForgottenJobs deletes the finished job's record (as
// if the jobs table were lost) and restarts over the same state dir:
// the result cache still holds the rendered table, so resubmission
// births a done job with Cached=true and the identical CSV — no cell
// re-runs.
func TestCacheServesForgottenJobs(t *testing.T) {
	dir := t.TempDir()
	srvA := startServer(t, dir, 2)
	c := &Client{Base: srvA.Addr()}
	job, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(job.ID); err != nil {
		t.Fatal(err)
	}
	want, err := c.Result(job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	srvA.Kill()
	if err := os.Remove(srvA.st.jobPath(job.ID)); err != nil {
		t.Fatal(err)
	}

	srvB := startServer(t, dir, 2)
	c = &Client{Base: srvB.Addr()}
	reborn, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if reborn.State != StateDone || !reborn.Cached || reborn.CellsDone != reborn.Cells {
		t.Fatalf("resubmission after table loss = %+v, want done from cache", reborn)
	}
	got, err := c.Result(reborn.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("cache-served CSV differs from the originally computed CSV")
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	srv, err := New(Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for name, body := range map[string]string{
		"not json":      "{",
		"no version":    `{"grid":{"modes":"hybrid-v1"}}`,
		"unknown axis":  `{"spec_version":1,"grid":{"modes":"hybrid-v1","flux":"3"}}`,
		"absolute swf":  `{"spec_version":1,"grid":{"traces":"swf:/etc/passwd","winfracs":"0.3"}}`,
		"traversal swf": `{"spec_version":1,"grid":{"traces":"swf:../../etc/passwd","winfracs":"0.3"}}`,
		// Relative, no "..", but resolveTracePath's ancestor walk would
		// find the real /etc/passwd — the root confinement must not.
		"ancestor swf":   `{"spec_version":1,"grid":{"traces":"swf:etc/passwd","winfracs":"0.3"}}`,
		"oversized body": `{"spec_version":1,"name":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
	} {
		resp := post(body)
		var ej errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&ej); err != nil {
			t.Errorf("%s: error body does not parse: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (error %q)", name, resp.StatusCode, ej.Error)
		} else if ej.Error == "" {
			t.Errorf("%s: 400 with empty error message", name)
		}
	}
}

func TestStatusAndResultErrors(t *testing.T) {
	// The manager is never started, so a submitted job stays queued —
	// which pins down the 409 on a premature result fetch.
	srv, err := New(Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/sweeps/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get("/v1/sweeps/j999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || job.State != StateQueued {
		t.Fatalf("submit = %d %+v, want 201 queued", resp.StatusCode, job)
	}
	if code := get("/v1/sweeps/" + job.ID + "/result"); code != http.StatusConflict {
		t.Errorf("queued job result = %d, want 409", code)
	}
	if code := get("/v1/sweeps/" + job.ID + "/result?format=yaml"); code != http.StatusConflict {
		t.Errorf("queued job result (bad format) = %d, want 409 before format check", code)
	}
}

// TestEventsStreamAfterCompletion subscribes after the job finished:
// per-cell history is pruned when the terminal event fires, so a late
// subscriber gets exactly one synthesized terminal event — and, most
// importantly, a stream that actually ends.
func TestEventsStreamAfterCompletion(t *testing.T) {
	srv := startServer(t, t.TempDir(), 2)
	c := &Client{Base: srv.Addr()}
	job, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(job.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/v1/sweeps/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // terminal event closes the stream
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) != 1 || events[0].Type != "done" {
		t.Fatalf("late subscription events = %+v, want exactly one done", events)
	}
	if events[0].Done != 2 || events[0].Total != 2 {
		t.Errorf("synthesized done = %d/%d, want 2/2", events[0].Done, events[0].Total)
	}
}

// TestEventsStreamLive subscribes while the job is still queued (the
// executor starts only after the subscription is confirmed) and sees
// the full queued → running → cell… → done sequence as it happens.
func TestEventsStreamLive(t *testing.T) {
	srv, err := New(Config{StateDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	job, err := c.Submit(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}

	// Once Get returns, response headers are out — the handler has
	// subscribed. Only then may the executor start.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv.mgr.start()
	t.Cleanup(func() { srv.mgr.stop(); srv.mgr.wait() })
	body, err := io.ReadAll(resp.Body) // terminal event closes the stream
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	cells := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		types = append(types, e.Type)
		if e.Type == "cell" {
			cells++
		}
	}
	if len(types) == 0 || types[0] != "queued" || types[len(types)-1] != "done" {
		t.Errorf("event sequence = %v, want queued … done", types)
	}
	if cells != 2 {
		t.Errorf("saw %d cell events, want 2", cells)
	}
}
